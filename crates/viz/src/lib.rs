//! # mcl-viz — SVG rendering of placements
//!
//! Renders designs as standalone SVG files: cells colored by height, fences
//! outlined, and (optionally) displacement vectors from GP to placed
//! locations — the visualization style of Fig. 6 in the paper.

#![forbid(unsafe_code)]

use mcl_db::prelude::*;
use std::fmt::Write as _;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct SvgOptions {
    /// Output width in pixels (height follows the aspect ratio).
    pub width_px: f64,
    /// Draw displacement lines from each cell's GP to its position.
    pub displacement_lines: bool,
    /// Only draw displacement lines at least this long (dbu).
    pub min_disp: Dbu,
    /// Highlight cells of this type id in red (the Fig. 6 styling);
    /// `None` colors by height instead.
    pub highlight_type: Option<CellTypeId>,
}

impl Default for SvgOptions {
    fn default() -> Self {
        Self {
            width_px: 900.0,
            displacement_lines: true,
            min_disp: 0,
            highlight_type: None,
        }
    }
}

/// Height palette (1-4 rows).
const HEIGHT_FILL: [&str; 4] = ["#b8cbe3", "#8fb383", "#d9b96c", "#c28ab6"];

/// Renders a design to an SVG string.
pub fn render_svg(design: &Design, opts: &SvgOptions) -> String {
    let core = design.core;
    let scale = opts.width_px / core.width().max(1) as f64;
    let w = opts.width_px;
    let h = core.height() as f64 * scale;
    let x = |v: Dbu| (v - core.xl) as f64 * scale;
    // SVG y grows downward; flip so row 0 is at the bottom.
    let y = |v: Dbu| h - (v - core.yl) as f64 * scale;

    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.1} {h:.1}">"#
    );
    let _ = writeln!(
        s,
        r##"<rect x="0" y="0" width="{w:.1}" height="{h:.1}" fill="#fafafa" stroke="#555"/>"##
    );

    // Fences.
    for f in design.fences.iter().skip(1) {
        for r in &f.rects {
            let _ = writeln!(
                s,
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#fff3d6" stroke="#c90" stroke-dasharray="4 2"/>"##,
                x(r.xl),
                y(r.yh),
                (r.width() as f64) * scale,
                (r.height() as f64) * scale
            );
        }
    }

    // Cells.
    for (i, c) in design.cells.iter().enumerate() {
        let id = CellId(i as u32);
        let ct = design.type_of(id);
        let p = c.pos.unwrap_or(c.gp);
        let r = design.rect_at(id, p);
        let fill = if c.fixed {
            "#777"
        } else if opts.highlight_type == Some(c.type_id) {
            "#d64545"
        } else if opts.highlight_type.is_some() {
            "#cfcfcf"
        } else {
            HEIGHT_FILL[(ct.height_rows as usize - 1).min(3)]
        };
        let _ = writeln!(
            s,
            r##"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{fill}" stroke="#444" stroke-width="0.3"/>"##,
            x(r.xl),
            y(r.yh),
            (r.width() as f64) * scale,
            (r.height() as f64) * scale
        );
    }

    // Displacement vectors.
    if opts.displacement_lines {
        for (i, c) in design.cells.iter().enumerate() {
            if c.fixed {
                continue;
            }
            let Some(p) = c.pos else { continue };
            if p.manhattan(c.gp) < opts.min_disp {
                continue;
            }
            if let Some(t) = opts.highlight_type {
                if c.type_id != t {
                    continue;
                }
            }
            let id = CellId(i as u32);
            let a = design.rect_at(id, c.gp).center();
            let b = design.rect_at(id, p).center();
            let _ = writeln!(
                s,
                r##"<line x1="{:.2}" y1="{:.2}" x2="{:.2}" y2="{:.2}" stroke="#d62728" stroke-width="0.7" opacity="0.75"/>"##,
                x(a.x),
                y(a.y),
                x(b.x),
                y(b.y)
            );
        }
    }
    let _ = writeln!(s, "</svg>");
    s
}

/// Renders a displacement histogram (bucketed in rows) as a standalone SVG
/// bar chart — handy next to the Fig. 6 scatter to see stage-2's effect on
/// the tail.
pub fn render_disp_histogram(design: &Design, buckets: usize) -> String {
    let rh = design.tech.row_height as f64;
    let disps: Vec<f64> = design
        .movable_cells()
        .filter_map(|id| {
            design.cells[id.0 as usize]
                .pos
                .map(|p| p.manhattan(design.cells[id.0 as usize].gp) as f64 / rh)
        })
        .collect();
    let buckets = buckets.max(1);
    let max_d = disps.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
    let mut counts = vec![0usize; buckets];
    for &d in &disps {
        let b = ((d / max_d) * buckets as f64) as usize;
        counts[b.min(buckets - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1) as f64;

    let (w, h, margin) = (640.0, 240.0, 30.0);
    let bar_w = (w - 2.0 * margin) / buckets as f64;
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">"#
    );
    let _ = writeln!(
        s,
        r##"<rect width="{w}" height="{h}" fill="#ffffff" stroke="#555"/>"##
    );
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bh = (c as f64 / peak) * (h - 2.0 * margin);
        let x = margin + i as f64 * bar_w;
        let y = h - margin - bh;
        let _ = writeln!(
            s,
            r##"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{bh:.1}" fill="#5b84b1" stroke="#333" stroke-width="0.4"/>"##,
            bar_w.max(1.0) - 0.5
        );
    }
    let _ = writeln!(
        s,
        r##"<text x="{margin}" y="{:.0}" font-size="11" fill="#333">0</text>"##,
        h - margin + 14.0
    );
    let _ = writeln!(
        s,
        r##"<text x="{:.0}" y="{:.0}" font-size="11" fill="#333" text-anchor="end">{max_d:.1} rows</text>"##,
        w - margin,
        h - margin + 14.0
    );
    let _ = writeln!(s, "</svg>");
    s
}

/// Renders a per-stage displacement/latency heatmap from a structured run
/// report (DESIGN.md §9): one row per pipeline stage, one column per log₂
/// displacement bucket (sites) from the stage's `*.cell_disp_sites`
/// histogram, shaded by cell count; the right-hand bar shows each stage's
/// share of the run's wall time. Stages without a histogram (obs compiled
/// out, or the stage skipped) still get their latency bar.
pub fn render_report_heatmap(report: &mcl_obs::report::RunReport) -> String {
    let stages: Vec<(&str, Option<&mcl_obs::report::HistoReport>, f64)> = report
        .stage_seconds
        .iter()
        .map(|s| {
            let histo = report
                .histograms
                .iter()
                .find(|h| h.name == format!("{}.cell_disp_sites", s.name));
            (s.name.as_str(), histo, s.seconds)
        })
        .collect();

    // Union of occupied log₂ buckets across stages, so columns line up.
    let max_bucket = stages
        .iter()
        .filter_map(|(_, h, _)| h.map(|h| h.buckets.iter().map(|&(b, _)| b).max().unwrap_or(0)))
        .max()
        .unwrap_or(0);
    let cols = max_bucket as usize + 1;
    let peak = mcl_obs::count_to_float(
        stages
            .iter()
            .filter_map(|(_, h, _)| h.map(|h| h.buckets.iter().map(|&(_, c)| c).max().unwrap_or(0)))
            .max()
            .unwrap_or(1)
            .max(1),
    );
    let total_secs = stages.iter().map(|(_, _, s)| s).sum::<f64>().max(1e-12);

    let (cell, label_w, bar_w, margin) = (26.0, 110.0, 120.0, 30.0);
    let grid_w = mcl_obs::count_to_float(cols as u64) * cell;
    let rows_f = mcl_obs::count_to_float(stages.len() as u64);
    let w = label_w + grid_w + bar_w + 2.0 * margin;
    let h = rows_f * cell + 2.0 * margin + 20.0;
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}">"#
    );
    let _ = writeln!(
        s,
        r##"<rect width="{w:.0}" height="{h:.0}" fill="#ffffff" stroke="#555"/>"##
    );
    let _ = writeln!(
        s,
        r##"<text x="{:.1}" y="{:.1}" font-size="12" fill="#333">{}: displacement (log2 sites) per stage; right bar = share of wall time</text>"##,
        margin,
        margin - 10.0,
        report.design
    );
    for (row, (name, histo, secs)) in stages.iter().enumerate() {
        let y = margin + mcl_obs::count_to_float(row as u64) * cell;
        let _ = writeln!(
            s,
            r##"<text x="{:.1}" y="{:.1}" font-size="11" fill="#333">{name}</text>"##,
            margin,
            y + cell * 0.65
        );
        if let Some(h) = histo {
            for &(b, count) in &h.buckets {
                // Log shading so the (typically huge) zero-displacement
                // bucket doesn't flatten everything else to white.
                let t = (mcl_obs::count_to_float(count).ln_1p() / peak.ln_1p()).clamp(0.0, 1.0);
                let shade = 255 - mcl_db::geom::dbu_from_f64_saturating(t * 200.0).clamp(0, 200);
                let x = margin + label_w + f64::from(b) * cell;
                let _ = writeln!(
                    s,
                    r##"<rect x="{x:.1}" y="{y:.1}" width="{cell:.1}" height="{cell:.1}" fill="rgb({shade},{shade},255)" stroke="#999" stroke-width="0.3"><title>{name} 2^{b} sites: {count} cells</title></rect>"##
                );
            }
        }
        let frac = secs / total_secs;
        let _ = writeln!(
            s,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#d08540" stroke="#333" stroke-width="0.4"><title>{name}: {secs:.6}s ({:.1}%)</title></rect>"##,
            margin + label_w + grid_w + 8.0,
            y + cell * 0.2,
            (bar_w - 16.0) * frac,
            cell * 0.6,
            100.0 * frac
        );
    }
    // Column axis: bucket exponents.
    for b in 0..cols {
        let bx = mcl_obs::count_to_float(b as u64);
        let _ = writeln!(
            s,
            r##"<text x="{:.1}" y="{:.1}" font-size="9" fill="#666" text-anchor="middle">{b}</text>"##,
            margin + label_w + (bx + 0.5) * cell,
            margin + rows_f * cell + 12.0
        );
    }
    let _ = writeln!(s, "</svg>");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        let mut d = Design::new("t", Technology::example(), Rect::new(0, 0, 1000, 900));
        let s = d.add_cell_type(CellType::new("s", 20, 1));
        let m = d.add_cell_type(CellType::new("m", 30, 2));
        let mut a = Cell::new("a", s, Point::new(100, 100));
        a.pos = Some(Point::new(200, 90));
        d.add_cell(a);
        let mut b = Cell::new("b", m, Point::new(500, 100));
        b.pos = Some(Point::new(500, 180));
        d.add_cell(b);
        d.add_fence(FenceRegion::new("g", vec![Rect::new(600, 0, 900, 180)]));
        d
    }

    #[test]
    fn svg_is_well_formed_ish() {
        let svg = render_svg(&design(), &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Two cells + background + fence, and at least one displacement line.
        assert!(svg.matches("<rect").count() >= 4);
        assert!(svg.contains("<line"));
    }

    #[test]
    fn highlight_mode_filters_lines() {
        let o = SvgOptions {
            highlight_type: Some(CellTypeId(1)),
            min_disp: 0,
            ..SvgOptions::default()
        };
        let svg = render_svg(&design(), &o);
        // Only cell b (type 1) gets a displacement line.
        assert_eq!(svg.matches("<line").count(), 1);
        assert!(svg.contains("#d64545"));
    }

    #[test]
    fn min_disp_suppresses_short_lines() {
        let o = SvgOptions {
            min_disp: 10_000,
            ..SvgOptions::default()
        };
        let svg = render_svg(&design(), &o);
        assert_eq!(svg.matches("<line").count(), 0);
    }

    #[test]
    fn histogram_renders_bars() {
        let svg = render_disp_histogram(&design(), 10);
        assert!(svg.starts_with("<svg"));
        // Background + at least one bar.
        assert!(svg.matches("<rect").count() >= 2);
        assert!(svg.contains("rows"));
    }

    #[test]
    fn histogram_handles_unplaced_and_empty() {
        let mut d = design();
        d.cells[0].pos = None;
        d.cells[1].pos = None;
        let svg = render_disp_histogram(&d, 5);
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    fn heatmap_report() -> mcl_obs::report::RunReport {
        let mut r = mcl_obs::report::RunReport::new("demo");
        r.stage("mgl", 0.08);
        r.stage("maxdisp", 0.01);
        r.stage("fixed_order", 0.01);
        r.histograms.push(mcl_obs::report::HistoReport {
            name: "mgl.cell_disp_sites".into(),
            count: 110,
            p50: 4,
            p95: 16,
            p100: 32,
            buckets: vec![(0, 80), (2, 20), (5, 10)],
        });
        r.histograms.push(mcl_obs::report::HistoReport {
            name: "fixed_order.cell_disp_sites".into(),
            count: 100,
            p50: 2,
            p95: 8,
            p100: 8,
            buckets: vec![(0, 90), (3, 10)],
        });
        r
    }

    #[test]
    fn report_heatmap_renders_stage_rows_and_latency_bars() {
        let svg = render_report_heatmap(&heatmap_report());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        for stage in ["mgl", "maxdisp", "fixed_order"] {
            assert!(svg.contains(stage), "missing stage label {stage}");
        }
        // 5 histogram cells + 3 latency bars + background.
        assert!(svg.matches("<rect").count() >= 9);
        // Hover titles carry the exact counts.
        assert!(svg.contains("2^5 sites: 10 cells"));
        assert!(svg.contains("80.0%"));
    }

    #[test]
    fn report_heatmap_without_histograms_still_renders() {
        // Recording off (or a baseline run): stage bars only.
        let mut r = mcl_obs::report::RunReport::new("bare");
        r.stage("mgl", 0.5);
        let svg = render_report_heatmap(&r);
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("mgl"));
    }
}
