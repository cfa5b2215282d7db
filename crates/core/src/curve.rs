//! Piecewise-linear displacement curves (Fig. 4 of the paper).
//!
//! When evaluating an insertion point, every *local cell* contributes a
//! piecewise-linear curve mapping the target cell's x position to the
//! displacement that local cell would incur. Cells right of the insertion
//! point produce type **A** (GP at/left of current position: flat, then
//! slope +1) or type **C** (GP right of current: flat, slope −1 down to
//! zero, then +1) curves; cells on the left mirror these as types **B** and
//! **D**. The target cell itself contributes a weighted V. Summing all
//! curves and probing every breakpoint yields the optimal position — the
//! paper evaluates all breakpoints rather than relying on the convexity
//! guaranteed by its Theorem 1, and so do we.

use mcl_db::geom::Dbu;

/// A piecewise-linear function of one variable, closed under addition.
///
/// Stored as a slope at −∞, a list of `(x, slope_delta)` events, and the
/// value at a reference point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PwlCurve {
    /// Slope left of every event.
    slope0: i64,
    /// Sorted, deduplicated slope-change events.
    events: Vec<(Dbu, i64)>,
    /// Reference x for [`Self::eval`].
    x_ref: Dbu,
    /// Value at `x_ref`.
    v_ref: i64,
}

impl PwlCurve {
    /// The constant-zero curve.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant curve.
    pub fn constant(v: i64) -> Self {
        Self {
            v_ref: v,
            ..Self::default()
        }
    }

    /// The weighted V `w·|x − center|`.
    pub fn vee(center: Dbu, w: i64) -> Self {
        Self {
            slope0: -w,
            events: vec![(center, 2 * w)],
            x_ref: center,
            v_ref: 0,
        }
    }

    /// Type **A** (Fig. 4): flat at `w·base` up to `a`, then slope `+w`.
    /// `base` is the cell's current displacement.
    pub fn type_a(a: Dbu, base: i64, w: i64) -> Self {
        Self {
            slope0: 0,
            events: vec![(a, w)],
            x_ref: a,
            v_ref: base.saturating_mul(w),
        }
    }

    /// Type **B**: slope `−w` up to `a`, then flat at `w·base`.
    pub fn type_b(a: Dbu, base: i64, w: i64) -> Self {
        Self {
            slope0: -w,
            events: vec![(a, w)],
            x_ref: a,
            v_ref: base.saturating_mul(w),
        }
    }

    /// Type **C**: flat at `w·base` up to `a`, slope `−w` down to zero at
    /// `c`, then slope `+w`. Requires `c = a + base` (the descending stretch
    /// ends exactly at zero).
    pub fn type_c(a: Dbu, base: i64, w: i64) -> Self {
        debug_assert!(base >= 0);
        Self {
            slope0: 0,
            events: vec![(a, -w), (a + base, 2 * w)],
            x_ref: a,
            v_ref: base.saturating_mul(w),
        }
    }

    /// Type **D**: slope `−w` down to zero at `c`, slope `+w` up to
    /// `a = c + base`, then flat at `w·base`.
    pub fn type_d(c: Dbu, base: i64, w: i64) -> Self {
        debug_assert!(base >= 0);
        Self {
            slope0: -w,
            events: vec![(c, 2 * w), (c + base, -w)],
            x_ref: c,
            v_ref: 0,
        }
    }

    /// Returns the curve shifted vertically by `dv`.
    pub fn offset(mut self, dv: i64) -> Self {
        self.v_ref = self.v_ref.saturating_add(dv);
        self
    }

    /// Evaluates the curve at `x`.
    pub fn eval(&self, x: Dbu) -> i64 {
        // Integrate slope from x_ref to x.
        let mut v = self.v_ref as i128;
        if x >= self.x_ref {
            let mut cur = self.x_ref;
            let mut slope = self.slope_at_ref();
            for &(ex, ds) in self.events.iter().skip_while(|&&(ex, _)| ex <= self.x_ref) {
                if ex >= x {
                    break;
                }
                v += slope as i128 * (ex - cur) as i128;
                cur = ex;
                slope += ds;
            }
            v += slope as i128 * (x - cur) as i128;
        } else {
            let mut cur = self.x_ref;
            // Walk events left of x_ref from right to left.
            let mut slope = self.slope_at_ref();
            for &(ex, ds) in self
                .events
                .iter()
                .rev()
                .skip_while(|&&(ex, _)| ex > self.x_ref)
            {
                // Arriving at event ex from the right: slope left of ex.
                if ex <= x {
                    break;
                }
                v -= slope as i128 * (cur - ex) as i128;
                slope -= ds;
                cur = ex;
            }
            v -= slope as i128 * (cur - x) as i128;
        }
        clamp_i64(v)
    }

    /// Slope immediately right of `x_ref`.
    fn slope_at_ref(&self) -> i64 {
        let mut s = self.slope0;
        for &(ex, ds) in &self.events {
            if ex <= self.x_ref {
                s += ds;
            } else {
                break;
            }
        }
        s
    }

    /// All event x coordinates (breakpoints).
    pub fn breakpoints(&self) -> impl Iterator<Item = Dbu> + '_ {
        self.events.iter().map(|&(x, _)| x)
    }

    /// Whether the curve is convex (slopes non-decreasing left to right).
    /// Theorem 1 of the paper states the summed insertion curve is convex
    /// when all local cells start at their fixed-row-and-order optimum.
    pub fn is_convex(&self) -> bool {
        self.events.iter().all(|&(_, ds)| ds >= 0)
    }

    /// Sums an iterator of curves into one.
    pub fn sum<I: IntoIterator<Item = PwlCurve>>(curves: I) -> PwlCurve {
        let mut events: Vec<(Dbu, i64)> = Vec::new();
        let mut slope0 = 0i64;
        let mut parts: Vec<PwlCurve> = Vec::new();
        for c in curves {
            slope0 += c.slope0;
            events.extend_from_slice(&c.events);
            parts.push(c);
        }
        events.sort_unstable_by_key(|&(x, _)| x);
        // Merge events at equal x.
        let mut merged: Vec<(Dbu, i64)> = Vec::with_capacity(events.len());
        for (x, ds) in events {
            match merged.last_mut() {
                Some((lx, lds)) if *lx == x => *lds += ds,
                _ => merged.push((x, ds)),
            }
        }
        merged.retain(|&(_, ds)| ds != 0);
        let x_ref = merged.first().map(|&(x, _)| x).unwrap_or(0);
        let v_ref = parts.iter().map(|c| c.eval(x_ref) as i128).sum::<i128>();
        PwlCurve {
            slope0,
            events: merged,
            x_ref,
            v_ref: clamp_i64(v_ref),
        }
    }

    /// Minimum over the closed interval `[lo, hi]`: returns `(x, value)`.
    /// The minimum of a piecewise-linear function on an interval occurs at a
    /// breakpoint or an endpoint, so probing those suffices (no convexity
    /// needed). Ties prefer the x closest to `prefer`.
    ///
    /// Runs in one left-to-right sweep (O(events)); the probe order — `lo`,
    /// `hi`, interior breakpoints ascending, then `prefer` — is part of the
    /// tie-breaking contract and must not change.
    ///
    /// Returns `None` when `lo > hi`.
    pub fn min_on(&self, lo: Dbu, hi: Dbu, prefer: Dbu) -> Option<(Dbu, i64)> {
        if lo > hi {
            return None;
        }
        let mut best: Option<(Dbu, i64)> = None;
        let mut probe = |x: Dbu, v: i64| {
            best = Some(match best {
                None => (x, v),
                Some((bx, bv)) => {
                    if v < bv || (v == bv && (x - prefer).abs() < (bx - prefer).abs()) {
                        (x, v)
                    } else {
                        (bx, bv)
                    }
                }
            });
        };
        let v_lo = self.eval(lo);
        probe(lo, v_lo);
        probe(hi, self.eval(hi));
        // Interior breakpoints (and `prefer` on the way) by slope
        // integration from lo — one pass instead of one eval per probe.
        let mut cur = lo;
        let mut v = v_lo as i128;
        let mut slope = self.slope_right_of(lo) as i128;
        let mut v_prefer: Option<i64> = None;
        for &(ex, ds) in self.events.iter().skip_while(|&&(ex, _)| ex <= lo) {
            if ex >= hi {
                break;
            }
            if cur < prefer && prefer <= ex && prefer < hi {
                v_prefer = Some(clamp_i64(v + slope * (prefer - cur) as i128));
            }
            v += slope * (ex - cur) as i128;
            cur = ex;
            probe(ex, clamp_i64(v));
            slope += ds as i128;
        }
        // The preferred point itself is probed too: on flat stretches the
        // minimum is attained on a whole interval and we want the tie-break
        // to favor it.
        if prefer > lo && prefer < hi {
            let vp = v_prefer.unwrap_or_else(|| clamp_i64(v + slope * (prefer - cur) as i128));
            probe(prefer, vp);
        }
        best
    }

    /// Slope immediately right of `x` (relative to `slope0`, counting every
    /// event at or before `x`).
    fn slope_right_of(&self, x: Dbu) -> i64 {
        let mut s = self.slope0;
        for &(ex, ds) in &self.events {
            if ex <= x {
                s += ds;
            } else {
                break;
            }
        }
        s
    }

    /// Rebuilds `self` as the sum of `terms`, reusing the event buffer.
    /// Semantically identical to `PwlCurve::sum` over the equivalent curves,
    /// but allocation-free once the buffer has grown to a steady size.
    pub fn sum_terms_into(&mut self, terms: &[PwlTerm]) {
        self.events.clear();
        let mut slope0 = 0i64;
        for t in terms {
            slope0 += t.slope0();
            t.events_into(&mut self.events);
        }
        self.events.sort_unstable_by_key(|&(x, _)| x);
        // Merge events at equal x in place, dropping zero deltas.
        let mut w = 0usize;
        for r in 0..self.events.len() {
            let (x, ds) = self.events[r];
            if w > 0 && self.events[w - 1].0 == x {
                self.events[w - 1].1 += ds;
            } else {
                self.events[w] = (x, ds);
                w += 1;
            }
        }
        self.events.truncate(w);
        self.events.retain(|&(_, ds)| ds != 0);
        self.slope0 = slope0;
        self.x_ref = self.events.first().map(|&(x, _)| x).unwrap_or(0);
        let v: i128 = terms.iter().map(|t| t.eval(self.x_ref) as i128).sum();
        self.v_ref = clamp_i64(v);
    }
}

/// Narrows an `i128` accumulator to `i64`, saturating at the bounds. Curve
/// values saturate rather than wrap: a clamped displacement sum stays a
/// valid (if pessimistic) upper bound, while wrap-around would invert the
/// comparison in [`PwlCurve::min_on`].
fn clamp_i64(v: i128) -> i64 {
    i64::try_from(v).unwrap_or(if v > 0 { i64::MAX } else { i64::MIN })
}

/// A displacement-curve contribution in closed form (Fig. 4 curve types plus
/// the target's V), small enough to be `Copy`: building one allocates
/// nothing, unlike the equivalent [`PwlCurve`] constructors. Hot-path
/// insertion evaluation collects terms and sums them once with
/// [`PwlCurve::sum_terms_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PwlTerm {
    /// The target's weighted V `w·|x − center|`.
    Vee {
        /// The V's apex.
        center: Dbu,
        /// Weight.
        w: i64,
    },
    /// Type **A**: flat at `w·base` up to `a`, then slope `+w`; plus `dv`.
    TypeA {
        /// Breakpoint.
        a: Dbu,
        /// Current displacement of the local cell.
        base: i64,
        /// Weight.
        w: i64,
        /// Vertical offset (Δ-displacement normalization).
        dv: i64,
    },
    /// Type **B**: slope `−w` up to `a`, then flat at `w·base`; plus `dv`.
    TypeB {
        /// Breakpoint.
        a: Dbu,
        /// Current displacement of the local cell.
        base: i64,
        /// Weight.
        w: i64,
        /// Vertical offset.
        dv: i64,
    },
    /// Type **C**: flat at `w·base` up to `a`, descending to zero at
    /// `a + base`, then slope `+w`; plus `dv`.
    TypeC {
        /// Breakpoint where the plateau ends.
        a: Dbu,
        /// Current displacement of the local cell.
        base: i64,
        /// Weight.
        w: i64,
        /// Vertical offset.
        dv: i64,
    },
    /// Type **D**: slope `−w` down to zero at `c`, ascending to `w·base` at
    /// `c + base`, then flat; plus `dv`.
    TypeD {
        /// The zero point.
        c: Dbu,
        /// Current displacement of the local cell.
        base: i64,
        /// Weight.
        w: i64,
        /// Vertical offset.
        dv: i64,
    },
}

impl PwlTerm {
    /// Slope at −∞.
    fn slope0(&self) -> i64 {
        match *self {
            PwlTerm::Vee { w, .. } | PwlTerm::TypeB { w, .. } | PwlTerm::TypeD { w, .. } => -w,
            PwlTerm::TypeA { .. } | PwlTerm::TypeC { .. } => 0,
        }
    }

    /// Appends this term's slope-change events to `out`.
    fn events_into(&self, out: &mut Vec<(Dbu, i64)>) {
        match *self {
            PwlTerm::Vee { center, w } => out.push((center, 2 * w)),
            PwlTerm::TypeA { a, w, .. } | PwlTerm::TypeB { a, w, .. } => out.push((a, w)),
            PwlTerm::TypeC { a, base, w, .. } => {
                out.push((a, -w));
                out.push((a + base, 2 * w));
            }
            PwlTerm::TypeD { c, base, w, .. } => {
                out.push((c, 2 * w));
                out.push((c + base, -w));
            }
        }
    }

    /// Evaluates the term at `x` (closed form).
    pub fn eval(&self, x: Dbu) -> i64 {
        match *self {
            PwlTerm::Vee { center, w } => w.saturating_mul((x - center).abs()),
            PwlTerm::TypeA { a, base, w, dv } => {
                let slope_part = if x > a { w.saturating_mul(x - a) } else { 0 };
                base.saturating_mul(w)
                    .saturating_add(slope_part)
                    .saturating_add(dv)
            }
            PwlTerm::TypeB { a, base, w, dv } => {
                let slope_part = if x < a { w.saturating_mul(a - x) } else { 0 };
                base.saturating_mul(w)
                    .saturating_add(slope_part)
                    .saturating_add(dv)
            }
            PwlTerm::TypeC { a, base, w, dv } => {
                let v = if x <= a {
                    base.saturating_mul(w)
                } else if x <= a + base {
                    w.saturating_mul(a + base - x)
                } else {
                    w.saturating_mul(x - a - base)
                };
                v.saturating_add(dv)
            }
            PwlTerm::TypeD { c, base, w, dv } => {
                let v = if x <= c {
                    w.saturating_mul(c - x)
                } else if x <= c + base {
                    w.saturating_mul(x - c)
                } else {
                    base.saturating_mul(w)
                };
                v.saturating_add(dv)
            }
        }
    }

    /// Exact minimum of the term on the closed interval `[lo, hi]`
    /// (`lo ≤ hi`). With a non-negative weight every term falls, then
    /// rises (its valley is the V's apex, Type A/B's breakpoint, Type C's
    /// `a + base`, Type D's `c`), so the minimum is at the valley clamped
    /// into the interval; a negative weight flips that shape, putting the
    /// minimum at an endpoint.
    pub fn min_on(&self, lo: Dbu, hi: Dbu) -> i64 {
        let (valley, w) = match *self {
            PwlTerm::Vee { center, w } => (center, w),
            PwlTerm::TypeA { a, w, .. } | PwlTerm::TypeB { a, w, .. } => (a, w),
            PwlTerm::TypeC { a, base, w, .. } => (a + base, w),
            PwlTerm::TypeD { c, w, .. } => (c, w),
        };
        if w >= 0 {
            self.eval(valley.clamp(lo, hi))
        } else {
            self.eval(lo).min(self.eval(hi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vee_shape() {
        let c = PwlCurve::vee(10, 1);
        assert_eq!(c.eval(10), 0);
        assert_eq!(c.eval(13), 3);
        assert_eq!(c.eval(4), 6);
        let w = PwlCurve::vee(0, 3);
        assert_eq!(w.eval(-5), 15);
        assert_eq!(w.eval(5), 15);
    }

    #[test]
    fn type_a_shape() {
        // Flat at 7 until x=100, then rising.
        let c = PwlCurve::type_a(100, 7, 1);
        assert_eq!(c.eval(0), 7);
        assert_eq!(c.eval(100), 7);
        assert_eq!(c.eval(130), 37);
    }

    #[test]
    fn type_b_shape() {
        // Falling until x=100, flat at 7 after.
        let c = PwlCurve::type_b(100, 7, 1);
        assert_eq!(c.eval(200), 7);
        assert_eq!(c.eval(100), 7);
        assert_eq!(c.eval(90), 17);
    }

    #[test]
    fn type_c_shape() {
        // Flat at 20 until a=50, descending to 0 at 70, then rising.
        let c = PwlCurve::type_c(50, 20, 1);
        assert_eq!(c.eval(0), 20);
        assert_eq!(c.eval(50), 20);
        assert_eq!(c.eval(60), 10);
        assert_eq!(c.eval(70), 0);
        assert_eq!(c.eval(85), 15);
    }

    #[test]
    fn type_d_shape() {
        // Descending to 0 at c=70, rising to 20 at 90, flat after.
        let c = PwlCurve::type_d(70, 20, 1);
        assert_eq!(c.eval(40), 30);
        assert_eq!(c.eval(70), 0);
        assert_eq!(c.eval(80), 10);
        assert_eq!(c.eval(90), 20);
        assert_eq!(c.eval(500), 20);
    }

    #[test]
    fn weighted_curves_scale() {
        let c = PwlCurve::type_a(10, 5, 3);
        assert_eq!(c.eval(0), 15);
        assert_eq!(c.eval(12), 21);
    }

    #[test]
    fn sum_of_curves_matches_pointwise() {
        let parts = vec![
            PwlCurve::vee(10, 2),
            PwlCurve::type_a(5, 3, 1),
            PwlCurve::type_c(0, 8, 1),
            PwlCurve::type_d(-20, 4, 2),
            PwlCurve::constant(11),
        ];
        let total = PwlCurve::sum(parts.clone());
        for x in (-40..40).step_by(3) {
            let expect: i64 = parts.iter().map(|c| c.eval(x)).sum();
            assert_eq!(total.eval(x), expect, "x = {x}");
        }
    }

    #[test]
    fn min_on_interval() {
        let c = PwlCurve::vee(10, 1);
        assert_eq!(c.min_on(0, 20, 0), Some((10, 0)));
        // Clamped minimum at an endpoint.
        assert_eq!(c.min_on(15, 30, 15), Some((15, 5)));
        assert_eq!(c.min_on(-10, 5, 0), Some((5, 5)));
        // Empty interval.
        assert_eq!(c.min_on(5, 4, 0), None);
    }

    #[test]
    fn min_prefers_closest_to_prefer_on_ties() {
        // Flat region between 10 and 20 (sum of two opposing hockey sticks).
        let c = PwlCurve::sum(vec![PwlCurve::type_b(10, 0, 1), PwlCurve::type_a(20, 0, 1)]);
        assert_eq!(c.eval(12), 0);
        assert_eq!(c.eval(18), 0);
        let (x, v) = c.min_on(0, 30, 17).unwrap();
        assert_eq!(v, 0);
        assert_eq!(x, 17);
    }

    #[test]
    fn min_of_nonconvex_sum_found() {
        // Two valleys: vees at 0 and 100, one deeper (weighted).
        let c = PwlCurve::sum(vec![
            PwlCurve::type_d(0, 10, 1),  // valley at 0, plateaus at 10 after 10
            PwlCurve::type_c(90, 10, 1), // valley at 100
            PwlCurve::vee(100, 1),       // deepen the right valley
        ]);
        let (x, _) = c.min_on(-50, 150, -50).unwrap();
        assert_eq!(x, 100, "global minimum in the deeper right valley");
    }

    #[test]
    fn eval_left_of_all_events() {
        let c = PwlCurve::type_a(0, 1, 1);
        assert_eq!(c.eval(-1000), 1);
    }

    #[test]
    fn convexity_detection() {
        assert!(PwlCurve::vee(5, 2).is_convex());
        assert!(PwlCurve::type_a(10, 3, 1).is_convex());
        assert!(PwlCurve::type_b(10, 3, 1).is_convex());
        // C and D have a descending stretch after/before a flat one:
        // individually non-convex.
        assert!(!PwlCurve::type_c(10, 3, 1).is_convex());
        assert!(!PwlCurve::type_d(10, 3, 1).is_convex());
        // Sums of convex curves stay convex.
        let s = PwlCurve::sum(vec![PwlCurve::vee(0, 1), PwlCurve::type_a(5, 2, 3)]);
        assert!(s.is_convex());
    }

    #[test]
    fn term_min_on_matches_brute_force() {
        for w in [-2, 0, 3] {
            for dv in [0, -7] {
                let terms = [
                    PwlTerm::Vee { center: 5, w },
                    PwlTerm::TypeA {
                        a: 5,
                        base: 4,
                        w,
                        dv,
                    },
                    PwlTerm::TypeB {
                        a: 5,
                        base: 4,
                        w,
                        dv,
                    },
                    PwlTerm::TypeC {
                        a: 5,
                        base: 4,
                        w,
                        dv,
                    },
                    PwlTerm::TypeD {
                        c: 5,
                        base: 4,
                        w,
                        dv,
                    },
                ];
                for t in terms {
                    for lo in -3..16 {
                        for hi in lo..16 {
                            let brute = (lo..=hi).map(|x| t.eval(x)).min().unwrap();
                            assert_eq!(t.min_on(lo, hi), brute, "{t:?} on [{lo}, {hi}]");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sum_of_nothing_is_zero() {
        let c = PwlCurve::sum(std::iter::empty());
        assert_eq!(c.eval(123), 0);
    }
}
