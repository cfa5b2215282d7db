//! Mutation property test: a corrupted Bookshelf bundle is refused with a
//! `ParseError`, never a panic. The daemon parses submitted bundles on its
//! connection threads, outside any `catch_unwind`, so a parser panic would
//! drop the connection instead of answering `PARSE`.

use mcl_gen::{generate, GeneratorConfig};
use mcl_parsers::{read_bookshelf, Bundle};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small generated design with every extension file populated.
fn base() -> Bundle {
    static BASE: OnceLock<Bundle> = OnceLock::new();
    BASE.get_or_init(generate_base).clone()
}

fn generate_base() -> Bundle {
    let cfg = GeneratorConfig {
        name: "mutation".into(),
        num_cells: 60,
        density: 0.5,
        fences: 1,
        fence_cell_fraction: 0.2,
        io_pins: 4,
        nets: 20,
        ..GeneratorConfig::small(5)
    };
    let bundle = mcl_parsers::write_bookshelf(&generate(&cfg).expect("generates").design);
    assert!(
        read_bookshelf(&bundle).is_ok(),
        "the unmutated bundle parses"
    );
    bundle
}

fn file_mut(b: &mut Bundle, k: usize) -> (&'static str, &mut String) {
    match k % 7 {
        0 => (".nodes", &mut b.nodes),
        1 => (".pl", &mut b.pl),
        2 => (".scl", &mut b.scl),
        3 => (".nets", &mut b.nets),
        4 => (".fence", &mut b.fence),
        5 => (".rails", &mut b.rails),
        _ => (".types", &mut b.types),
    }
}

/// Applies mutation `op` to `text`; `pick` selects the byte, line or token.
fn mutate(text: &str, op: usize, pick: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return String::new();
    }
    let at = pick % lines.len();
    match op {
        // Truncate at a char boundary.
        0 => {
            let mut cut = pick % (text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        // Delete one token of one line.
        1 => {
            let toks: Vec<&str> = lines[at].split_whitespace().collect();
            let mut out: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
            if !toks.is_empty() {
                let drop = (pick / lines.len()) % toks.len();
                out[at] = toks
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, t)| *t)
                    .collect::<Vec<_>>()
                    .join(" ");
            }
            out.join("\n") + "\n"
        }
        // Duplicate one line.
        2 => {
            let mut out: Vec<&str> = lines.clone();
            out.insert(at, lines[at]);
            out.join("\n") + "\n"
        }
        // Replace one number with 0, -7 or 99999999.
        _ => {
            let replacement = ["0", "-7", "99999999"][op - 3];
            let numbers: Vec<(usize, usize)> = lines
                .iter()
                .enumerate()
                .flat_map(|(li, l)| {
                    l.split_whitespace()
                        .enumerate()
                        .filter(|(_, t)| t.parse::<f64>().is_ok())
                        .map(move |(ti, _)| (li, ti))
                })
                .collect();
            let mut out: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
            if !numbers.is_empty() {
                let (li, ti) = numbers[pick % numbers.len()];
                out[li] = lines[li]
                    .split_whitespace()
                    .enumerate()
                    .map(|(i, t)| if i == ti { replacement } else { t })
                    .collect::<Vec<_>>()
                    .join(" ");
            }
            out.join("\n") + "\n"
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6000))]

    #[test]
    fn corrupted_bundles_never_panic(
        file in 0usize..7,
        op in 0usize..6,
        pick in 0usize..1_000_000,
    ) {
        let mut bundle = base();
        let (name, text) = file_mut(&mut bundle, file);
        *text = mutate(text, op, pick);
        let outcome = std::panic::catch_unwind(|| read_bookshelf(&bundle).map(|_| ()));
        prop_assert!(
            outcome.is_ok(),
            "read_bookshelf panicked on {name} mutation op={op} pick={pick}"
        );
    }
}

#[test]
fn non_positive_node_width_is_a_parse_error() {
    for width in ["0", "-7"] {
        let mut bundle = base();
        let line = bundle
            .nodes
            .lines()
            .find(|l| l.starts_with('c'))
            .expect("a cell record")
            .to_string();
        let toks: Vec<&str> = line.split_whitespace().collect();
        let bad = format!("{} {width} {}", toks[0], toks[2]);
        bundle.nodes = bundle.nodes.replacen(&line, &bad, 1);
        let err = read_bookshelf(&bundle).expect_err("refused");
        assert!(err.to_string().contains(".nodes"), "{err}");
    }
}

#[test]
fn node_listed_twice_in_types_is_a_parse_error() {
    let mut bundle = base();
    let cells_line = bundle
        .types
        .lines()
        .find(|l| l.trim_start().starts_with("Cells "))
        .expect("a Cells line")
        .to_string();
    let first = cells_line.split_whitespace().nth(1).expect("a member");
    bundle.types = bundle
        .types
        .replacen(&cells_line, &format!("{cells_line} {first}"), 1);
    let err = read_bookshelf(&bundle).expect_err("refused");
    assert!(err.to_string().contains("twice"), "{err}");
}
