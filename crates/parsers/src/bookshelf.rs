//! Bookshelf reader/writer (UCLA `.nodes/.pl/.scl/.nets`) with three
//! documented extensions for this problem domain:
//!
//! - `.fence` — fence regions and their cell membership;
//! - `.rails` — the P/G grid and IO pins;
//! - `.types` — the cell-type library (edge classes, rail parity, pin
//!   shapes) plus technology extras (layer count, edge-spacing table),
//!   which plain Bookshelf cannot express.
//!
//! Without a `.types` file, node dimensions map onto synthesized
//! [`CellType`]s (one per distinct width × height); with one, the bundle
//! round-trips a [`Design`] faithfully enough that legalizing the re-read
//! design reproduces the original results bit-for-bit. The `.pl` positions
//! are read as the GP input.

use crate::error::{ParseError, Result};
use mcl_db::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A complete Bookshelf design bundle as text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bundle {
    /// `.nodes` contents.
    pub nodes: String,
    /// `.pl` contents.
    pub pl: String,
    /// `.scl` contents.
    pub scl: String,
    /// `.nets` contents (optional).
    pub nets: String,
    /// `.fence` contents (optional extension).
    pub fence: String,
    /// `.rails` contents (optional extension).
    pub rails: String,
    /// `.types` contents (optional extension).
    pub types: String,
}

/// Reads a bundle into a [`Design`].
///
/// # Errors
///
/// Any malformed line yields a [`ParseError`] with file and line context.
pub fn read(bundle: &Bundle) -> Result<Design> {
    let scl = parse_scl(&bundle.scl)?;
    let tech = Technology {
        site_width: scl.site_width,
        row_height: scl.row_height,
        ..Technology::example()
    };
    let core = Rect::new(
        scl.origin_x,
        scl.origin_y,
        scl.origin_x + scl.row_sites * scl.site_width,
        scl.origin_y + scl.num_rows as Dbu * scl.row_height,
    );
    let mut design = Design::new("bookshelf", tech, core);

    // Nodes.
    let nodes = parse_nodes(&bundle.nodes)?;
    let mut type_cache: HashMap<(Dbu, Dbu), CellTypeId> = HashMap::new();
    let mut name_to_id: HashMap<String, CellId> = HashMap::new();
    for n in &nodes {
        let h_rows = u32::try_from(n.height / scl.row_height).unwrap_or(0);
        if n.height % scl.row_height != 0 || h_rows == 0 {
            return Err(ParseError::new(
                ".nodes",
                n.line,
                format!(
                    "node {} height {} is not a whole number of rows",
                    n.name, n.height
                ),
            ));
        }
        let tid = *type_cache.entry((n.width, n.height)).or_insert_with(|| {
            design.add_cell_type(CellType::new(
                format!("BS_W{}_H{}", n.width, h_rows),
                n.width,
                h_rows,
            ))
        });
        let mut cell = Cell::new(n.name.clone(), tid, Point::new(0, 0));
        cell.fixed = n.terminal;
        let id = design.add_cell(cell);
        name_to_id.insert(n.name.clone(), id);
    }

    // Placement.
    for p in parse_pl(&bundle.pl)? {
        let Some(&id) = name_to_id.get(&p.name) else {
            return Err(ParseError::new(
                ".pl",
                p.line,
                format!("unknown node {}", p.name),
            ));
        };
        let cell = &mut design.cells[id.0 as usize];
        cell.gp = Point::new(p.x, p.y);
        if cell.fixed || p.fixed {
            cell.fixed = true;
            cell.pos = Some(Point::new(p.x, p.y));
        }
    }

    // Cell-type library (extension). Applied before nets so net pin
    // indices resolve against the real pin lists.
    if !bundle.types.trim().is_empty() {
        apply_types(&mut design, &bundle.types, &name_to_id)?;
    }

    // Nets.
    if !bundle.nets.trim().is_empty() {
        for net in parse_nets(&bundle.nets)? {
            let mut pins = Vec::new();
            for (name, pin, line) in net.pins {
                let Some(&id) = name_to_id.get(&name) else {
                    return Err(ParseError::new(
                        ".nets",
                        line,
                        format!("unknown node {name}"),
                    ));
                };
                // Bookshelf nets have no physical pins; use offset (0,0) via
                // a synthetic pin at the cell center... we keep a Fixed-less
                // representation: the `P<idx>` extension token selects a pin
                // of the type, otherwise pin 0 — synthesized at the cell
                // center when the type has none.
                let ct = design.type_of(id);
                if ct.pins.is_empty() {
                    let tid = design.cells[id.0 as usize].type_id;
                    let w = design.cell_types[tid.0 as usize].width;
                    // Mid-height of the *first row*, never on a row boundary
                    // (cell centers of even-height cells sit on P/G rails).
                    let y = design.tech.row_height / 2;
                    design.cell_types[tid.0 as usize].pins.push(PinShape {
                        name: "P".into(),
                        layer: 1,
                        rect: Rect::new(w / 2, y, w / 2 + 1, y + 1),
                    });
                }
                let ct = design.type_of(id);
                if pin >= ct.pins.len() {
                    return Err(ParseError::new(
                        ".nets",
                        line,
                        format!("node {name} has no pin {pin}"),
                    ));
                }
                pins.push(NetPin::Cell { cell: id, pin });
            }
            design.nets.push(Net::new(net.name, pins));
        }
    }

    // Fences.
    if !bundle.fence.trim().is_empty() {
        for f in parse_fence(&bundle.fence)? {
            let fid = design.add_fence(FenceRegion::new(f.name, f.rects));
            for (name, line) in f.cells {
                let Some(&id) = name_to_id.get(&name) else {
                    return Err(ParseError::new(
                        ".fence",
                        line,
                        format!("unknown node {name}"),
                    ));
                };
                design.cells[id.0 as usize].fence = fid;
            }
        }
    }

    // Rails + IO pins.
    if !bundle.rails.trim().is_empty() {
        let (grid, ios) = parse_rails(&bundle.rails)?;
        design.grid = grid;
        design.io_pins = ios;
    }

    Ok(design)
}

/// Applies a `.pl` file to a design as the *placement* (not the GP): every
/// listed movable cell gets its `pos` and orientation set. Used to overlay
/// a legalizer's output onto the original benchmark for checking/scoring.
///
/// # Errors
///
/// Unknown cell names and malformed lines yield [`ParseError`].
pub fn apply_pl(design: &mut Design, pl: &str) -> Result<()> {
    let index: HashMap<String, usize> = design
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.clone(), i))
        .collect();
    for p in parse_pl(pl)? {
        let Some(&i) = index.get(p.name.as_str()) else {
            return Err(ParseError::new(
                ".pl",
                p.line,
                format!("unknown node {}", p.name),
            ));
        };
        if design.cells[i].fixed {
            continue;
        }
        design.cells[i].pos = Some(Point::new(p.x, p.y));
        if let Some(row) = design.row_of_y(p.y) {
            design.cells[i].orient = design.orient_for_row(design.cells[i].type_id, row);
        }
    }
    Ok(())
}

/// The `.pl` text of a design alone: the legal placement when present, the
/// GP otherwise; fixed cells are marked. Equal to [`write()`]'s `pl`.
pub fn write_pl(design: &Design) -> String {
    let mut pl = String::from("UCLA pl 1.0\n\n");
    for c in &design.cells {
        let p = c.pos.unwrap_or(c.gp);
        let orient = c.orient;
        if c.fixed {
            let _ = writeln!(pl, "{} {} {} : {} /FIXED", c.name, p.x, p.y, orient);
        } else {
            let _ = writeln!(pl, "{} {} {} : {}", c.name, p.x, p.y, orient);
        }
    }
    pl
}

/// Writes a design to a Bookshelf bundle. Positions go to `.pl` (the legal
/// placement when present, the GP otherwise); fixed cells are marked.
pub fn write(design: &Design) -> Bundle {
    let mut nodes = String::from("UCLA nodes 1.0\n\n");
    let terminals = design.cells.iter().filter(|c| c.fixed).count();
    let _ = writeln!(nodes, "NumNodes : {}", design.cells.len());
    let _ = writeln!(nodes, "NumTerminals : {terminals}");
    for c in &design.cells {
        let ct = &design.cell_types[c.type_id.0 as usize];
        let h = ct.height_rows as Dbu * design.tech.row_height;
        if c.fixed {
            let _ = writeln!(nodes, "{} {} {} terminal", c.name, ct.width, h);
        } else {
            let _ = writeln!(nodes, "{} {} {}", c.name, ct.width, h);
        }
    }

    let pl = write_pl(design);

    let mut scl = String::from("UCLA scl 1.0\n\n");
    let _ = writeln!(scl, "NumRows : {}", design.num_rows);
    for r in 0..design.num_rows {
        let _ = writeln!(scl, "CoreRow Horizontal");
        let _ = writeln!(scl, "  Coordinate : {}", design.row_y(r));
        let _ = writeln!(scl, "  Height : {}", design.tech.row_height);
        let _ = writeln!(scl, "  Sitewidth : {}", design.tech.site_width);
        let _ = writeln!(scl, "  Sitespacing : {}", design.tech.site_width);
        let _ = writeln!(scl, "  SubrowOrigin : {}", design.core.xl);
        let _ = writeln!(
            scl,
            "  NumSites : {}",
            design.core.width() / design.tech.site_width
        );
        let _ = writeln!(scl, "End");
    }

    let mut nets = String::from("UCLA nets 1.0\n\n");
    let _ = writeln!(nets, "NumNets : {}", design.nets.len());
    let total_pins: usize = design.nets.iter().map(|n| n.pins.len()).sum();
    let _ = writeln!(nets, "NumPins : {total_pins}");
    for n in &design.nets {
        let _ = writeln!(nets, "NetDegree : {} {}", n.pins.len(), n.name);
        for p in &n.pins {
            match p {
                NetPin::Cell { cell, pin } => {
                    // The trailing `P<idx>` token is this dialect's pin
                    // reference; standard Bookshelf readers ignore it.
                    let _ = writeln!(
                        nets,
                        "  {} I : 0 0 P{pin}",
                        design.cells[cell.0 as usize].name
                    );
                }
                NetPin::Fixed(pt) => {
                    let _ = writeln!(nets, "  FIXED I : {} {}", pt.x, pt.y);
                }
            }
        }
    }

    let mut types = String::new();
    let t = &design.tech;
    let _ = writeln!(
        types,
        "Tech NumLayers {} MaxDispRows {}",
        t.num_layers, t.max_disp_rows
    );
    let nc = t.edge_spacing.n_classes();
    let _ = writeln!(types, "EdgeSpacing {nc}");
    for a in 0..nc {
        let row: Vec<String> = (0..nc)
            .map(|b| t.edge_spacing.spacing(a as u8, b as u8).to_string())
            .collect();
        let _ = writeln!(types, "  Row {}", row.join(" "));
    }
    for (ti, ct) in design.cell_types.iter().enumerate() {
        let parity = match ct.rail_parity {
            None => "none",
            Some(RowParity::Even) => "even",
            Some(RowParity::Odd) => "odd",
        };
        let _ = writeln!(
            types,
            "CellType {} Width {} HeightRows {} EdgeClass {} {} Parity {}",
            ct.name, ct.width, ct.height_rows, ct.edge_class.0, ct.edge_class.1, parity
        );
        for p in &ct.pins {
            let _ = writeln!(
                types,
                "  Pin {} {} {} {} {} {}",
                p.name, p.layer, p.rect.xl, p.rect.yl, p.rect.xh, p.rect.yh
            );
        }
        let members: Vec<&str> = design
            .cells
            .iter()
            .filter(|c| c.type_id.0 as usize == ti)
            .map(|c| c.name.as_str())
            .collect();
        if !members.is_empty() {
            let _ = writeln!(types, "  Cells {}", members.join(" "));
        }
        let _ = writeln!(types, "End");
    }

    let mut fence = String::new();
    for (fi, f) in design.fences.iter().enumerate().skip(1) {
        let _ = writeln!(fence, "Fence {}", f.name);
        for r in &f.rects {
            let _ = writeln!(fence, "  Rect {} {} {} {}", r.xl, r.yl, r.xh, r.yh);
        }
        let members: Vec<&str> = design
            .cells
            .iter()
            .filter(|c| c.fence.0 as usize == fi)
            .map(|c| c.name.as_str())
            .collect();
        if !members.is_empty() {
            let _ = writeln!(fence, "  Cells {}", members.join(" "));
        }
        let _ = writeln!(fence, "End");
    }

    let mut rails = String::new();
    let g = &design.grid;
    let _ = writeln!(
        rails,
        "Grid HLayer {} HWidth {} HPitchRows {} VLayer {} VWidth {} VPitch {} VOffset {}",
        g.h_layer, g.h_width, g.h_pitch_rows, g.v_layer, g.v_width, g.v_pitch, g.v_offset
    );
    for p in &design.io_pins {
        let _ = writeln!(
            rails,
            "IoPin {} {} {} {} {} {}",
            p.name, p.layer, p.rect.xl, p.rect.yl, p.rect.xh, p.rect.yh
        );
    }

    Bundle {
        nodes,
        pl,
        scl,
        nets,
        fence,
        rails,
        types,
    }
}

// ---------------------------------------------------------------------
// Individual file parsers.

struct NodeRec {
    name: String,
    width: Dbu,
    height: Dbu,
    terminal: bool,
    line: usize,
}

fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, l)| {
        let l = l.trim();
        if l.is_empty() || l.starts_with('#') || l.starts_with("UCLA") {
            None
        } else {
            Some((i + 1, l))
        }
    })
}

fn parse_nodes(text: &str) -> Result<Vec<NodeRec>> {
    let mut out = Vec::new();
    for (line, l) in content_lines(text) {
        if l.starts_with("NumNodes") || l.starts_with("NumTerminals") {
            continue;
        }
        let mut it = l.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| ParseError::new(".nodes", line, "missing name"))?;
        let width: Dbu = parse_num(it.next(), ".nodes", line)?;
        let height: Dbu = parse_num(it.next(), ".nodes", line)?;
        if width <= 0 || height <= 0 {
            return Err(ParseError::new(
                ".nodes",
                line,
                format!("node {name} size {width}x{height} is not positive"),
            ));
        }
        let terminal = it
            .next()
            .map(|t| t.eq_ignore_ascii_case("terminal"))
            .unwrap_or(false);
        out.push(NodeRec {
            name: name.to_string(),
            width,
            height,
            terminal,
            line,
        });
    }
    Ok(out)
}

struct PlRec {
    name: String,
    x: Dbu,
    y: Dbu,
    fixed: bool,
    line: usize,
}

fn parse_pl(text: &str) -> Result<Vec<PlRec>> {
    let mut out = Vec::new();
    for (line, l) in content_lines(text) {
        let mut it = l.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| ParseError::new(".pl", line, "missing name"))?;
        let x: Dbu = parse_num(it.next(), ".pl", line)?;
        let y: Dbu = parse_num(it.next(), ".pl", line)?;
        let rest: Vec<&str> = it.collect();
        let fixed = rest.iter().any(|t| t.contains("FIXED"));
        out.push(PlRec {
            name: name.to_string(),
            x,
            y,
            fixed,
            line,
        });
    }
    Ok(out)
}

struct SclInfo {
    num_rows: usize,
    row_height: Dbu,
    site_width: Dbu,
    origin_x: Dbu,
    origin_y: Dbu,
    row_sites: Dbu,
}

fn parse_scl(text: &str) -> Result<SclInfo> {
    let mut info = SclInfo {
        num_rows: 0,
        row_height: 0,
        site_width: 0,
        origin_x: 0,
        origin_y: Dbu::MAX,
        row_sites: 0,
    };
    let mut rows_seen = 0usize;
    for (line, l) in content_lines(text) {
        let lower = l.to_ascii_lowercase();
        let val = || -> Result<Dbu> {
            let colon = l
                .find(':')
                .ok_or_else(|| ParseError::new(".scl", line, "missing value"))?;
            let v = l[colon + 1..].trim_start();
            // 1-based column of the value token within the trimmed line.
            let column = l.len() - v.len() + 1;
            let tok = v.split_whitespace().next().ok_or_else(|| {
                ParseError::new(".scl", line, "missing value after ':'").with_column(column)
            })?;
            tok.parse().map_err(|_| {
                ParseError::new(".scl", line, format!("bad number {tok:?} in {l:?}"))
                    .with_column(column)
            })
        };
        if lower.starts_with("corerow") {
            rows_seen += 1;
        } else if lower.starts_with("coordinate") {
            let y = val()?;
            if y < info.origin_y {
                info.origin_y = y;
            }
        } else if lower.starts_with("height") {
            info.row_height = val()?;
        } else if lower.starts_with("sitewidth") {
            info.site_width = val()?;
        } else if lower.starts_with("subroworigin") {
            info.origin_x = val()?;
        } else if lower.starts_with("numsites") {
            info.row_sites = info.row_sites.max(val()?);
        } else if lower.starts_with("numrows") {
            info.num_rows = val()? as usize;
        }
    }
    if rows_seen > 0 {
        info.num_rows = rows_seen;
    }
    if info.num_rows == 0 || info.row_height <= 0 || info.site_width <= 0 || info.row_sites <= 0 {
        return Err(ParseError::new(".scl", 0, "incomplete row description"));
    }
    if info.origin_y == Dbu::MAX {
        info.origin_y = 0;
    }
    Ok(info)
}

struct NetRec {
    name: String,
    /// `(node name, pin index, source line)`. The pin index comes from the
    /// trailing `P<idx>` extension token and defaults to 0.
    pins: Vec<(String, usize, usize)>,
}

fn parse_nets(text: &str) -> Result<Vec<NetRec>> {
    let mut out: Vec<NetRec> = Vec::new();
    let mut auto = 0usize;
    for (line, l) in content_lines(text) {
        if l.starts_with("NumNets") || l.starts_with("NumPins") {
            continue;
        }
        if let Some(rest) = l.strip_prefix("NetDegree") {
            let mut it = rest.trim().trim_start_matches(':').split_whitespace();
            let _deg: usize = parse_num(it.next(), ".nets", line)? as usize;
            let name = it.next().map(str::to_string).unwrap_or_else(|| {
                auto += 1;
                format!("net{auto}")
            });
            out.push(NetRec {
                name,
                pins: Vec::new(),
            });
        } else {
            let Some(net) = out.last_mut() else {
                return Err(ParseError::new(".nets", line, "pin before NetDegree"));
            };
            let toks: Vec<&str> = l.split_whitespace().collect();
            let name = *toks
                .first()
                .ok_or_else(|| ParseError::new(".nets", line, "missing pin node"))?;
            let pin = if toks.len() > 1 {
                toks.last()
                    .and_then(|t| t.strip_prefix('P'))
                    .and_then(|t| t.parse::<usize>().ok())
                    .unwrap_or(0)
            } else {
                0
            };
            net.pins.push((name.to_string(), pin, line));
        }
    }
    Ok(out)
}

struct FenceRec {
    name: String,
    rects: Vec<Rect>,
    cells: Vec<(String, usize)>,
}

fn parse_fence(text: &str) -> Result<Vec<FenceRec>> {
    let mut out: Vec<FenceRec> = Vec::new();
    for (line, l) in content_lines(text) {
        if let Some(name) = l.strip_prefix("Fence") {
            out.push(FenceRec {
                name: name.trim().to_string(),
                rects: Vec::new(),
                cells: Vec::new(),
            });
        } else if let Some(r) = l.strip_prefix("Rect") {
            let f = out
                .last_mut()
                .ok_or_else(|| ParseError::new(".fence", line, "Rect before Fence"))?;
            let v: Vec<Dbu> = r
                .split_whitespace()
                .map(|t| {
                    t.parse()
                        .map_err(|_| ParseError::new(".fence", line, "bad rect"))
                })
                .collect::<Result<_>>()?;
            if v.len() != 4 {
                return Err(ParseError::new(".fence", line, "Rect needs 4 numbers"));
            }
            f.rects.push(Rect::new(v[0], v[1], v[2], v[3]));
        } else if let Some(cells) = l.strip_prefix("Cells") {
            let f = out
                .last_mut()
                .ok_or_else(|| ParseError::new(".fence", line, "Cells before Fence"))?;
            f.cells
                .extend(cells.split_whitespace().map(|s| (s.to_string(), line)));
        } else if l == "End" {
            // section terminator
        } else {
            return Err(ParseError::new(".fence", line, format!("unexpected: {l}")));
        }
    }
    Ok(out)
}

struct TypeRec {
    ct: CellType,
    cells: Vec<(String, usize)>,
    line: usize,
}

/// Replaces the synthesized per-dimension cell types with the library from
/// a `.types` file, remapping every listed cell, and applies the technology
/// extras (layer count, edge-spacing table, max-disp normalizer).
fn apply_types(
    design: &mut Design,
    text: &str,
    name_to_id: &HashMap<String, CellId>,
) -> Result<()> {
    let (types, tech) = parse_types(text)?;
    if let Some((num_layers, max_disp_rows, spacing)) = tech {
        design.tech.num_layers = num_layers;
        design.tech.max_disp_rows = max_disp_rows;
        design.tech.edge_spacing = spacing;
    }
    let old = std::mem::take(&mut design.cell_types);
    let mut assigned = vec![false; design.cells.len()];
    for (ti, t) in types.iter().enumerate() {
        for (name, line) in &t.cells {
            let Some(&id) = name_to_id.get(name) else {
                return Err(ParseError::new(
                    ".types",
                    *line,
                    format!("unknown node {name}"),
                ));
            };
            if std::mem::replace(&mut assigned[id.0 as usize], true) {
                return Err(ParseError::new(
                    ".types",
                    *line,
                    format!("node {name} is listed twice"),
                ));
            }
            let cell = &mut design.cells[id.0 as usize];
            // Dimensions must agree with the `.nodes` record (captured by
            // the synthesized type the node mapped to).
            let node_ct = &old[cell.type_id.0 as usize];
            if node_ct.width != t.ct.width || node_ct.height_rows != t.ct.height_rows {
                return Err(ParseError::new(
                    ".types",
                    t.line,
                    format!(
                        "type {} is {}x{} rows but node {name} is {}x{}",
                        t.ct.name, t.ct.width, t.ct.height_rows, node_ct.width, node_ct.height_rows
                    ),
                ));
            }
            cell.type_id = CellTypeId(ti as u32);
        }
    }
    if let Some(i) = assigned.iter().position(|a| !a) {
        return Err(ParseError::new(
            ".types",
            0,
            format!(
                ".types must assign every node; {} is missing",
                design.cells[i].name
            ),
        ));
    }
    design.cell_types = types.into_iter().map(|t| t.ct).collect();
    Ok(())
}

type TechExtras = (u8, f64, EdgeSpacingTable);

fn parse_types(text: &str) -> Result<(Vec<TypeRec>, Option<TechExtras>)> {
    let mut out: Vec<TypeRec> = Vec::new();
    let mut tech: Option<TechExtras> = None;
    let mut spacing_rows_left = 0usize;
    for (line, l) in content_lines(text) {
        let bad = |m: &str| ParseError::new(".types", line, m.to_string());
        if spacing_rows_left > 0 {
            let Some((_, _, table)) = tech.as_mut() else {
                return Err(bad("spacing row outside EdgeSpacing"));
            };
            let n = table.n_classes();
            let a = (n - spacing_rows_left) as u8;
            let row = l.strip_prefix("Row").ok_or_else(|| bad("expected Row"))?;
            let vals: Vec<Dbu> = row
                .split_whitespace()
                .map(|t| t.parse().map_err(|_| bad("bad spacing")))
                .collect::<Result<_>>()?;
            if vals.len() != n {
                return Err(bad("wrong spacing row length"));
            }
            for (b, v) in vals.iter().enumerate() {
                if *v < 0 {
                    return Err(bad("negative spacing"));
                }
                table.set(a, b as u8, *v);
            }
            spacing_rows_left -= 1;
        } else if let Some(rest) = l.strip_prefix("Tech ") {
            let toks: Vec<&str> = rest.split_whitespace().collect();
            let mut num_layers = 3u8;
            let mut max_disp_rows = 100.0f64;
            let mut k = 0;
            while k + 1 < toks.len() {
                match toks[k] {
                    "NumLayers" => {
                        num_layers = toks[k + 1].parse().map_err(|_| bad("bad NumLayers"))?;
                    }
                    "MaxDispRows" => {
                        max_disp_rows = toks[k + 1].parse().map_err(|_| bad("bad MaxDispRows"))?;
                    }
                    t => return Err(bad(&format!("unknown Tech key {t}"))),
                }
                k += 2;
            }
            tech = Some((num_layers, max_disp_rows, EdgeSpacingTable::new(1)));
        } else if let Some(rest) = l.strip_prefix("EdgeSpacing") {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| bad("bad EdgeSpacing class count"))?;
            // Edge classes are `u8` ids, so a larger table is corrupt (and
            // would be an n² allocation).
            if n == 0 || n > 256 {
                return Err(bad("EdgeSpacing needs 1 to 256 classes"));
            }
            let Some((_, _, table)) = tech.as_mut() else {
                return Err(bad("EdgeSpacing before Tech"));
            };
            *table = EdgeSpacingTable::new(n);
            spacing_rows_left = n;
        } else if let Some(rest) = l.strip_prefix("CellType ") {
            let toks: Vec<&str> = rest.split_whitespace().collect();
            if toks.len() != 10 || toks[1] != "Width" || toks[3] != "HeightRows" {
                return Err(bad(
                    "CellType <name> Width <w> HeightRows <h> EdgeClass <l> <r> Parity <p>",
                ));
            }
            let width: Dbu = toks[2].parse().map_err(|_| bad("bad width"))?;
            let height: u32 = toks[4].parse().map_err(|_| bad("bad height"))?;
            if width <= 0 || height == 0 {
                return Err(bad("cell dimensions must be positive"));
            }
            let mut ct = CellType::new(toks[0], width, height);
            ct.edge_class = (
                toks[6].parse().map_err(|_| bad("bad edge class"))?,
                toks[7].parse().map_err(|_| bad("bad edge class"))?,
            );
            ct.rail_parity = match toks[9] {
                "none" => None,
                "even" => Some(RowParity::Even),
                "odd" => Some(RowParity::Odd),
                p => return Err(bad(&format!("unknown parity {p}"))),
            };
            out.push(TypeRec {
                ct,
                cells: Vec::new(),
                line,
            });
        } else if let Some(rest) = l.strip_prefix("Pin ") {
            let t = out.last_mut().ok_or_else(|| bad("Pin before CellType"))?;
            let toks: Vec<&str> = rest.split_whitespace().collect();
            if toks.len() != 6 {
                return Err(bad("Pin <name> <layer> <xl> <yl> <xh> <yh>"));
            }
            let nums: Vec<Dbu> = toks[1..]
                .iter()
                .map(|s| s.parse().map_err(|_| bad("bad pin number")))
                .collect::<Result<_>>()?;
            t.ct.pins.push(PinShape {
                name: toks[0].to_string(),
                layer: nums[0] as u8,
                rect: Rect::new(nums[1], nums[2], nums[3], nums[4]),
            });
        } else if let Some(cells) = l.strip_prefix("Cells ") {
            let t = out.last_mut().ok_or_else(|| bad("Cells before CellType"))?;
            t.cells
                .extend(cells.split_whitespace().map(|s| (s.to_string(), line)));
        } else if l == "End" {
            // section terminator
        } else {
            return Err(bad(&format!("unexpected: {l}")));
        }
    }
    if spacing_rows_left > 0 {
        return Err(ParseError::new(".types", 0, "truncated EdgeSpacing table"));
    }
    Ok((out, tech))
}

fn parse_rails(text: &str) -> Result<(PowerGrid, Vec<IoPin>)> {
    let mut grid = PowerGrid::none();
    let mut ios = Vec::new();
    for (line, l) in content_lines(text) {
        let mut it = l.split_whitespace();
        match it.next() {
            Some("Grid") => {
                let toks: Vec<&str> = it.collect();
                let mut k = 0;
                while k + 1 < toks.len() {
                    let v: Dbu = toks[k + 1]
                        .parse()
                        .map_err(|_| ParseError::new(".rails", line, "bad number"))?;
                    match toks[k] {
                        "HLayer" => grid.h_layer = v as u8,
                        "HWidth" => grid.h_width = v,
                        "HPitchRows" => grid.h_pitch_rows = v as u32,
                        "VLayer" => grid.v_layer = v as u8,
                        "VWidth" => grid.v_width = v,
                        "VPitch" => grid.v_pitch = v,
                        "VOffset" => grid.v_offset = v,
                        t => {
                            return Err(ParseError::new(".rails", line, format!("unknown key {t}")))
                        }
                    }
                    k += 2;
                }
            }
            Some("IoPin") => {
                let name = it
                    .next()
                    .ok_or_else(|| ParseError::new(".rails", line, "IoPin needs a name"))?;
                let nums: Vec<Dbu> = it
                    .map(|t| {
                        t.parse()
                            .map_err(|_| ParseError::new(".rails", line, "bad number"))
                    })
                    .collect::<Result<_>>()?;
                if nums.len() != 5 {
                    return Err(ParseError::new(
                        ".rails",
                        line,
                        "IoPin needs layer + 4 coords",
                    ));
                }
                ios.push(IoPin {
                    name: name.to_string(),
                    layer: nums[0] as u8,
                    rect: Rect::new(nums[1], nums[2], nums[3], nums[4]),
                });
            }
            Some(t) => {
                return Err(ParseError::new(".rails", line, format!("unexpected: {t}")));
            }
            None => {}
        }
    }
    Ok((grid, ios))
}

fn parse_num(tok: Option<&str>, ctx: &str, line: usize) -> Result<Dbu> {
    tok.ok_or_else(|| ParseError::new(ctx, line, "missing number"))?
        .parse()
        .map_err(|_| ParseError::new(ctx, line, format!("bad number {tok:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> Bundle {
        Bundle {
            nodes: "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n\
                    a 20 90\nb 30 180\nobs 100 90 terminal\n"
                .into(),
            pl: "UCLA pl 1.0\na 15 22 : N\nb 400 95 : N\nobs 500 0 : N /FIXED\n".into(),
            scl: "UCLA scl 1.0\nCoreRow Horizontal\n  Coordinate : 0\n  Height : 90\n\
                  Sitewidth : 10\n  Sitespacing : 10\n  SubrowOrigin : 0\n  NumSites : 100\nEnd\n\
                  CoreRow Horizontal\n  Coordinate : 90\n  Height : 90\n  Sitewidth : 10\n\
                  Sitespacing : 10\n  SubrowOrigin : 0\n  NumSites : 100\nEnd\n"
                .into(),
            nets: "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n  a I : 0 0\n  b O : 0 0\n".into(),
            fence: "Fence g0\n  Rect 300 0 600 180\n  Cells b\nEnd\n".into(),
            rails: "Grid HLayer 2 HWidth 6 HPitchRows 1 VLayer 3 VWidth 8 VPitch 200 VOffset 100\n\
                    IoPin io0 2 500 40 520 60\n"
                .into(),
            types: String::new(),
        }
    }

    #[test]
    fn reads_sample() {
        let d = read(&sample_bundle()).unwrap();
        assert_eq!(d.cells.len(), 3);
        assert_eq!(d.num_rows, 2);
        assert_eq!(d.core, Rect::new(0, 0, 1000, 180));
        assert_eq!(d.type_of(CellId(1)).height_rows, 2);
        assert!(d.cells[2].fixed);
        assert_eq!(d.cells[2].pos, Some(Point::new(500, 0)));
        assert_eq!(d.cells[1].fence, FenceId(1));
        assert_eq!(d.nets.len(), 1);
        assert_eq!(d.grid.v_pitch, 200);
        assert_eq!(d.io_pins.len(), 1);
        assert!(d.validate().is_empty());
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let d = read(&sample_bundle()).unwrap();
        let bundle2 = write(&d);
        let d2 = read(&bundle2).unwrap();
        assert_eq!(d.cells.len(), d2.cells.len());
        assert_eq!(d.num_rows, d2.num_rows);
        assert_eq!(d.core, d2.core);
        for (a, b) in d.cells.iter().zip(&d2.cells) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.gp, b.gp);
            assert_eq!(a.fixed, b.fixed);
            assert_eq!(a.fence, b.fence);
        }
        assert_eq!(d.grid, d2.grid);
        assert_eq!(d.io_pins, d2.io_pins);
        assert_eq!(d.nets.len(), d2.nets.len());
    }

    #[test]
    fn types_extension_roundtrips_faithfully() {
        // A design with non-default type metadata (edge classes, parity,
        // multiple pins, edge-spacing table) survives write→read exactly:
        // this is what lets batch CLI runs over written bundles reproduce
        // in-memory golden results.
        let mut d = read(&sample_bundle()).unwrap();
        d.tech.edge_spacing = EdgeSpacingTable::new(2);
        d.tech.edge_spacing.set(1, 1, 30);
        d.cell_types[0].edge_class = (0, 1);
        d.cell_types[1].rail_parity = Some(RowParity::Odd);
        d.cell_types[0].pins.push(PinShape {
            name: "ZN".into(),
            layer: 2,
            rect: Rect::new(4, 10, 8, 20),
        });
        d.nets[0].pins[0] = NetPin::Cell {
            cell: CellId(0),
            pin: 1,
        };
        let d2 = read(&write(&d)).unwrap();
        assert_eq!(d.tech, d2.tech);
        assert_eq!(d.cell_types, d2.cell_types);
        assert_eq!(d.cells, d2.cells);
        assert_eq!(d.nets, d2.nets);
        assert_eq!(d.fences, d2.fences);
    }

    #[test]
    fn types_file_errors_are_caught() {
        let mut b = sample_bundle();
        let d = read(&b).unwrap();
        b.types = write(&d).types;
        // A well-formed sidecar round-trips.
        assert!(read(&b).is_ok());
        // Unknown node in a Cells list.
        let mut bad = b.clone();
        bad.types = bad.types.replace("Cells a", "Cells ghost");
        assert!(read(&bad).unwrap_err().message.contains("unknown node"));
        // Dimension mismatch against .nodes.
        let mut bad = b.clone();
        bad.types = bad.types.replace("Width 20", "Width 50");
        assert!(read(&bad).unwrap_err().message.contains("but node"));
        // A node left unassigned.
        let mut bad = b.clone();
        bad.types = bad.types.replace("  Cells a\n", "");
        assert!(read(&bad)
            .unwrap_err()
            .message
            .contains("must assign every node"));
    }

    #[test]
    fn apply_pl_overlays_positions() {
        let mut d = read(&sample_bundle()).unwrap();
        apply_pl(&mut d, "a 40 90 : N\n").unwrap();
        assert_eq!(d.cells[0].pos, Some(Point::new(40, 90)));
        assert_eq!(d.cells[0].orient, Orient::FS, "row 1 flips odd-height");
        // GP untouched.
        assert_eq!(d.cells[0].gp, Point::new(15, 22));
        // Fixed cells are not moved.
        apply_pl(&mut d, "obs 0 0 : N\n").unwrap();
        assert_eq!(d.cells[2].pos, Some(Point::new(500, 0)));
        // Unknown names rejected.
        assert!(apply_pl(&mut d, "ghost 0 0 : N\n").is_err());
    }

    #[test]
    fn bad_height_rejected() {
        let mut b = sample_bundle();
        b.nodes = "NumNodes : 1\nNumTerminals : 0\na 20 85\n".into();
        b.pl = "a 0 0 : N\n".into();
        b.nets.clear();
        b.fence.clear();
        let err = read(&b).unwrap_err();
        assert!(err.message.contains("whole number of rows"), "{err}");
    }

    #[test]
    fn unknown_node_in_pl_rejected() {
        let mut b = sample_bundle();
        b.pl.push_str("ghost 0 0 : N\n");
        let err = read(&b).unwrap_err();
        assert!(err.message.contains("unknown node"), "{err}");
    }

    #[test]
    fn missing_scl_fields_rejected() {
        let mut b = sample_bundle();
        b.scl = "CoreRow Horizontal\nEnd\n".into();
        assert!(read(&b).is_err());
    }

    #[test]
    fn fence_without_header_rejected() {
        let mut b = sample_bundle();
        b.fence = "Rect 0 0 1 1\n".into();
        let err = read(&b).unwrap_err();
        assert!(err.message.contains("Rect before Fence"), "{err}");
    }
}
