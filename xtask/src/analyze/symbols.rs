//! Per-crate symbol table: every `fn` in the workspace, with the `impl`
//! context it lives in (type and, for trait impls, trait name), its body as a
//! token tree, and whether it is test-only code.
//!
//! Resolution stays deliberately name-based and conservative — there is no
//! type inference here. The call graph built on top resolves a method call
//! `x.run(…)` to *every* `run` defined in an impl block anywhere in the
//! workspace; that over-approximation is what makes the reachability lints
//! sound (no false "unreachable" verdicts) at the price of some extra
//! reachable functions.

use super::tokens::{Group, Tt};

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into [`super::Workspace::files`].
    pub file: usize,
    /// Bare function name (`run`, `eval_job`, …).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body token group (`{ … }`).
    pub body: Group,
    /// `impl` self type (`S` in `impl Trait for S`), or the
    /// trait name for methods declared with a default body inside
    /// `trait … { }`. `None` for free functions.
    pub impl_type: Option<String>,
    /// Trait being implemented, when inside `impl Trait for Type`.
    pub impl_trait: Option<String>,
    /// True when the definition line falls in `#[cfg(test)]` / `#[test]`
    /// territory per the masking lexer's test-region scan.
    pub is_test: bool,
}

impl FnDef {
    /// Human-readable label: `Type::name` or `name`.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The impl/trait context threaded through the tree walk.
#[derive(Debug, Clone, Default)]
struct Ctx {
    impl_type: Option<String>,
    impl_trait: Option<String>,
}

/// Extracts every `fn` with a body from one file's token trees.
/// `test_lines[line - 1]` says whether a 1-based line is inside test code.
pub fn extract_fns(file: usize, trees: &[Tt], test_lines: &[bool]) -> Vec<FnDef> {
    let mut out = Vec::new();
    walk(file, trees, &Ctx::default(), test_lines, &mut out);
    out
}

/// Whether a 1-based line lies in test-only code.
pub fn is_test_line(test_lines: &[bool], line: usize) -> bool {
    line >= 1 && test_lines.get(line - 1).copied().unwrap_or(false)
}

fn walk(file: usize, items: &[Tt], ctx: &Ctx, test_lines: &[bool], out: &mut Vec<FnDef>) {
    let mut i = 0;
    while i < items.len() {
        match items[i].ident() {
            Some("fn") => {
                if let Some((def, next)) = parse_fn(file, items, i, ctx, test_lines) {
                    // Nested fns inside the body are free functions.
                    walk(file, &def.body.items, &Ctx::default(), test_lines, out);
                    out.push(def);
                    i = next;
                    continue;
                }
                i += 1;
            }
            Some("impl" | "trait") => {
                let kw_is_trait = items[i].ident() == Some("trait");
                // Header runs up to the first brace group at this level.
                let mut j = i + 1;
                while j < items.len() {
                    if let Some(g) = items[j].group() {
                        if g.delim == b'{' {
                            break;
                        }
                    }
                    j += 1;
                }
                if j < items.len() {
                    let header = &items[i + 1..j];
                    let body = items[j].group().expect("checked above");
                    let sub = impl_ctx(header, kw_is_trait);
                    walk(file, &body.items, &sub, test_lines, out);
                    i = j + 1;
                    continue;
                }
                i += 1;
            }
            _ => {
                // Recurse into stray groups (mod bodies, blocks) without an
                // impl context; `mod name { … }` is the common case.
                if let Some(g) = items[i].group() {
                    if g.delim == b'{' {
                        walk(file, &g.items, ctx, test_lines, out);
                    }
                }
                i += 1;
            }
        }
    }
}

/// Parses `impl … { }` / `trait Name { }` headers into a context.
/// Identifiers inside `<…>` generic regions and after `where` are ignored;
/// with a `for` keyword the last path segment before it is the trait and the
/// last one after it is the self type.
fn impl_ctx(header: &[Tt], is_trait: bool) -> Ctx {
    let mut depth = 0i32;
    let mut before_for: Vec<&str> = Vec::new();
    let mut after_for: Vec<&str> = Vec::new();
    let mut saw_for = false;
    for t in header {
        if t.is_punct(b'<') {
            depth += 1;
            continue;
        }
        if t.is_punct(b'>') {
            depth = (depth - 1).max(0);
            continue;
        }
        if depth > 0 {
            continue;
        }
        match t.ident() {
            Some("where") => break,
            Some("for") => saw_for = true,
            Some("dyn" | "unsafe") | None => {}
            Some(id) => {
                if saw_for {
                    after_for.push(id);
                } else {
                    before_for.push(id);
                }
            }
        }
    }
    if is_trait {
        let name = before_for.first().map(|s| (*s).to_string());
        return Ctx {
            impl_type: name.clone(),
            impl_trait: name,
        };
    }
    if saw_for {
        Ctx {
            impl_type: after_for.last().map(|s| (*s).to_string()),
            impl_trait: before_for.last().map(|s| (*s).to_string()),
        }
    } else {
        Ctx {
            impl_type: before_for.last().map(|s| (*s).to_string()),
            impl_trait: None,
        }
    }
}

/// Parses one `fn` starting at `items[at]` (`items[at]` is the `fn` ident).
/// Returns the definition and the index just past its body. Signatures
/// without a body (trait method declarations) return `None`.
fn parse_fn(
    file: usize,
    items: &[Tt],
    at: usize,
    ctx: &Ctx,
    test_lines: &[bool],
) -> Option<(FnDef, usize)> {
    let line = items[at].line();
    let name = items.get(at + 1)?.ident()?.to_string();
    // Scan forward to the body brace group or a terminating `;`.
    let mut j = at + 2;
    while j < items.len() {
        if items[j].is_punct(b';') {
            return None; // bodiless signature
        }
        if let Some(g) = items[j].group() {
            if g.delim == b'{' {
                return Some((
                    FnDef {
                        file,
                        name,
                        line,
                        body: g.clone(),
                        impl_type: ctx.impl_type.clone(),
                        impl_trait: ctx.impl_trait.clone(),
                        is_test: is_test_line(test_lines, line),
                    },
                    j + 1,
                ));
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::tokens::parse_trees;
    use crate::lexer::{mask_code, test_line_mask};

    fn fns(src: &str) -> Vec<FnDef> {
        let masked = mask_code(src);
        let trees = parse_trees(&masked);
        let tl = test_line_mask(&masked);
        extract_fns(0, &trees, &tl)
    }

    #[test]
    fn free_and_impl_fns() {
        let src = "fn free() {}\n\
                   struct S;\n\
                   impl S { fn method(&self) {} }\n\
                   impl Stage for S { fn run(&self) {} }\n";
        let got = fns(src);
        assert_eq!(got.len(), 3);
        let free = got.iter().find(|f| f.name == "free").expect("free");
        assert_eq!(free.impl_type, None);
        let method = got.iter().find(|f| f.name == "method").expect("method");
        assert_eq!(method.impl_type.as_deref(), Some("S"));
        assert_eq!(method.impl_trait, None);
        let run = got.iter().find(|f| f.name == "run").expect("run");
        assert_eq!(run.impl_type.as_deref(), Some("S"));
        assert_eq!(run.impl_trait.as_deref(), Some("Stage"));
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_headers() {
        let src = "impl<'a, T: Clone> Wrapper<T> where T: Send { fn get(&self) {} }\n";
        let got = fns(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].impl_type.as_deref(), Some("Wrapper"));
        assert_eq!(got[0].impl_trait, None);
    }

    #[test]
    fn trait_default_methods_and_bare_signatures() {
        let src = "trait Stage { fn name(&self) -> &str; fn tick(&self) { helper(); } }\n";
        let got = fns(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].name, "tick");
        assert_eq!(got[0].impl_trait.as_deref(), Some("Stage"));
    }

    #[test]
    fn test_code_is_marked() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn check() { lib(); }\n\
                   }\n";
        let got = fns(src);
        let lib = got.iter().find(|f| f.name == "lib").expect("lib");
        let check = got.iter().find(|f| f.name == "check").expect("check");
        assert!(!lib.is_test);
        assert!(check.is_test);
    }

    #[test]
    fn nested_fns_are_extracted_as_free() {
        let src = "impl S { fn outer(&self) { fn inner() {} inner(); } }\n";
        let got = fns(src);
        assert_eq!(got.len(), 2);
        let inner = got.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(inner.impl_type, None);
    }
}
