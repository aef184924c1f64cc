//! The `Waveform` type and its analysis methods.

use std::error::Error;
use std::fmt;

/// Error produced by waveform construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WaveformError {
    /// Time and value vectors had different lengths, or fewer than two
    /// samples were supplied.
    InvalidShape {
        /// Human-readable description.
        context: String,
    },
    /// The time grid was not strictly increasing or contained non-finite
    /// values.
    InvalidTimeGrid,
    /// Two waveforms did not span a common time window for the requested
    /// operation.
    DisjointWindows,
}

impl fmt::Display for WaveformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidShape { context } => write!(f, "invalid waveform shape: {context}"),
            Self::InvalidTimeGrid => write!(f, "time grid must be finite and strictly increasing"),
            Self::DisjointWindows => write!(f, "waveforms do not share a time window"),
        }
    }
}

impl Error for WaveformError {}

/// A located extremum returned by [`Waveform::peak`] / [`Waveform::trough`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Time of the extremum (parabolically refined between samples).
    pub time: f64,
    /// Value at the extremum.
    pub value: f64,
}

/// A sampled signal on a strictly increasing time grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    t: Vec<f64>,
    v: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from parallel time and value vectors.
    ///
    /// # Errors
    ///
    /// * [`WaveformError::InvalidShape`] for mismatched lengths or fewer
    ///   than two samples,
    /// * [`WaveformError::InvalidTimeGrid`] for non-finite or
    ///   non-increasing times.
    pub fn new(t: Vec<f64>, v: Vec<f64>) -> Result<Self, WaveformError> {
        if t.len() != v.len() || t.len() < 2 {
            return Err(WaveformError::InvalidShape {
                context: format!("{} times vs {} values", t.len(), v.len()),
            });
        }
        if t.iter().any(|x| !x.is_finite()) || t.windows(2).any(|w| w[1] <= w[0]) {
            return Err(WaveformError::InvalidTimeGrid);
        }
        Ok(Self { t, v })
    }

    /// Samples `f` at `n` evenly spaced points on `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidShape`] when `n < 2` and
    /// [`WaveformError::InvalidTimeGrid`] when `t1 <= t0`.
    pub fn from_fn<F: FnMut(f64) -> f64>(
        t0: f64,
        t1: f64,
        n: usize,
        mut f: F,
    ) -> Result<Self, WaveformError> {
        if n < 2 {
            return Err(WaveformError::InvalidShape {
                context: format!("n = {n}, need at least 2"),
            });
        }
        if !(t1 > t0) || !t0.is_finite() || !t1.is_finite() {
            return Err(WaveformError::InvalidTimeGrid);
        }
        let step = (t1 - t0) / (n - 1) as f64;
        let t: Vec<f64> = (0..n)
            .map(|i| if i == n - 1 { t1 } else { t0 + step * i as f64 })
            .collect();
        let v: Vec<f64> = t.iter().map(|&x| f(x)).collect();
        Self::new(t, v)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Always `false` — a waveform holds at least two samples — but kept for
    /// the conventional `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sample times.
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// The time window `(first, last)`.
    pub fn window(&self) -> (f64, f64) {
        (self.t[0], *self.t.last().expect("len >= 2"))
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.t.iter().copied().zip(self.v.iter().copied())
    }

    /// Linear interpolation at `t`, clamped to the end values outside the
    /// window.
    pub fn sample(&self, t: f64) -> f64 {
        if t <= self.t[0] {
            return self.v[0];
        }
        let last = self.t.len() - 1;
        if t >= self.t[last] {
            return self.v[last];
        }
        let i = match self
            .t
            .binary_search_by(|x| x.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => return self.v[i],
            Err(i) => i,
        };
        let (t0, t1) = (self.t[i - 1], self.t[i]);
        let w = (t - t0) / (t1 - t0);
        self.v[i - 1] * (1.0 - w) + self.v[i] * w
    }

    /// The global maximum, refined with a parabolic fit through the winning
    /// sample and its neighbours.
    pub fn peak(&self) -> Peak {
        self.extremum(1.0)
    }

    /// The global minimum (same refinement as [`Waveform::peak`]).
    pub fn trough(&self) -> Peak {
        let p = self.extremum(-1.0);
        Peak {
            time: p.time,
            value: p.value,
        }
    }

    fn extremum(&self, sign: f64) -> Peak {
        let mut best = 0usize;
        for i in 1..self.v.len() {
            if sign * self.v[i] > sign * self.v[best] {
                best = i;
            }
        }
        // Parabolic refinement when the winner is interior and the grid
        // around it is (locally) uniform enough.
        if best > 0 && best + 1 < self.v.len() {
            let (tm, t0, tp) = (self.t[best - 1], self.t[best], self.t[best + 1]);
            let (ym, y0, yp) = (self.v[best - 1], self.v[best], self.v[best + 1]);
            let hl = t0 - tm;
            let hr = tp - t0;
            // Fit a parabola y0 + b x + a x^2 through the three points
            // (general non-uniform spacing) and take its vertex if it lies
            // inside the bracket. Only within 4:1 neighbour spacings:
            // through a near-duplicate sample, such as a transient's sliver
            // step onto a breakpoint, the vertex can land far above every
            // sample.
            if hl > 0.0 && hr > 0.0 && hl <= 4.0 * hr && hr <= 4.0 * hl {
                let d1 = (ym - y0) / hl;
                let d2 = (yp - y0) / hr;
                let a = (d1 + d2) / (hl + hr);
                let b = d2 - a * hr;
                if sign * a < 0.0 {
                    let dt = -b / (2.0 * a);
                    if dt > -hl && dt < hr {
                        let t_star = t0 + dt;
                        let v_star = y0 + b * dt + a * dt * dt;
                        return Peak {
                            time: t_star,
                            value: v_star,
                        };
                    }
                }
            }
        }
        Peak {
            time: self.t[best],
            value: self.v[best],
        }
    }

    /// Times at which the waveform crosses `level` (linear interpolation
    /// between samples; touch-without-cross at a sample counts once).
    pub fn crossings(&self, level: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 1..self.v.len() {
            let (a, b) = (self.v[i - 1] - level, self.v[i] - level);
            if a == 0.0 {
                if out.last() != Some(&self.t[i - 1]) {
                    out.push(self.t[i - 1]);
                }
            } else if a.signum() != b.signum() && b != 0.0 {
                let w = a / (a - b);
                out.push(self.t[i - 1] + w * (self.t[i] - self.t[i - 1]));
            } else if b == 0.0 && i == self.v.len() - 1 {
                out.push(self.t[i]);
            }
        }
        out
    }

    /// First time the waveform reaches `level` going upward, if any.
    pub fn first_rise_through(&self, level: f64) -> Option<f64> {
        for i in 1..self.v.len() {
            if self.v[i - 1] < level && self.v[i] >= level {
                let w = (level - self.v[i - 1]) / (self.v[i] - self.v[i - 1]);
                return Some(self.t[i - 1] + w * (self.t[i] - self.t[i - 1]));
            }
        }
        None
    }

    /// 10%–90% rise time with respect to `full_scale` (absolute units).
    ///
    /// Returns `None` when either level is never reached.
    pub fn rise_time(&self, full_scale: f64) -> Option<f64> {
        let lo = self.first_rise_through(0.1 * full_scale)?;
        let hi = self.first_rise_through(0.9 * full_scale)?;
        (hi >= lo).then_some(hi - lo)
    }

    /// Last time after which the waveform stays within `tol` of `target`.
    ///
    /// Returns `None` when it never settles.
    pub fn settling_time(&self, target: f64, tol: f64) -> Option<f64> {
        let mut settle_from = None;
        for (t, v) in self.iter() {
            if (v - target).abs() <= tol {
                settle_from.get_or_insert(t);
            } else {
                settle_from = None;
            }
        }
        settle_from
    }

    /// Resamples onto `n` evenly spaced points over the same window.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidShape`] when `n < 2`.
    pub fn resample(&self, n: usize) -> Result<Self, WaveformError> {
        let (t0, t1) = self.window();
        Self::from_fn(t0, t1, n, |t| self.sample(t))
    }

    /// Resamples onto an explicit time grid.
    ///
    /// # Errors
    ///
    /// Same validation as [`Waveform::new`] on `times`.
    pub fn resample_onto(&self, times: &[f64]) -> Result<Self, WaveformError> {
        let v = times.iter().map(|&t| self.sample(t)).collect();
        Self::new(times.to_vec(), v)
    }

    /// The same waveform with every sample time shifted by `dt` (e.g. to
    /// move a simulator trace onto a model time axis).
    pub fn shifted(&self, dt: f64) -> Self {
        Self {
            t: self.t.iter().map(|x| x + dt).collect(),
            v: self.v.clone(),
        }
    }

    /// The portion of the waveform inside `[t0, t1]`, with interpolated
    /// endpoint samples.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::DisjointWindows`] when the clip window does
    /// not overlap the waveform, or [`WaveformError::InvalidTimeGrid`] when
    /// `t1 <= t0`.
    pub fn clipped(&self, t0: f64, t1: f64) -> Result<Self, WaveformError> {
        if !(t1 > t0) {
            return Err(WaveformError::InvalidTimeGrid);
        }
        let (w0, w1) = self.window();
        if t1 < w0 || t0 > w1 {
            return Err(WaveformError::DisjointWindows);
        }
        let lo = t0.max(w0);
        let hi = t1.min(w1);
        let mut t = vec![lo];
        let mut v = vec![self.sample(lo)];
        for (ti, vi) in self.iter() {
            if ti > lo && ti < hi {
                t.push(ti);
                v.push(vi);
            }
        }
        if hi > *t.last().expect("non-empty") {
            t.push(hi);
            v.push(self.sample(hi));
        }
        if t.len() < 2 {
            // Degenerate overlap thinner than one sample: synthesize the
            // two interpolated endpoints.
            return Self::new(vec![lo, hi], vec![self.sample(lo), self.sample(hi)]);
        }
        Self::new(t, v)
    }

    /// Applies `f` to every value, keeping the grid.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> Self {
        Self {
            t: self.t.clone(),
            v: self.v.iter().copied().map(f).collect(),
        }
    }

    /// Pointwise combination with `other` on **this** waveform's grid
    /// (`other` is linearly resampled).
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::DisjointWindows`] when the windows do not
    /// overlap at all.
    pub fn zip_with<F: FnMut(f64, f64) -> f64>(
        &self,
        other: &Self,
        mut f: F,
    ) -> Result<Self, WaveformError> {
        let (a0, a1) = self.window();
        let (b0, b1) = other.window();
        if a1 < b0 || b1 < a0 {
            return Err(WaveformError::DisjointWindows);
        }
        let v = self.iter().map(|(t, v)| f(v, other.sample(t))).collect();
        Self::new(self.t.clone(), v)
    }

    /// Maximum absolute difference from `other`, evaluated on this grid.
    ///
    /// # Errors
    ///
    /// See [`Waveform::zip_with`].
    pub fn max_abs_error(&self, other: &Self) -> Result<f64, WaveformError> {
        let d = self.zip_with(other, |a, b| (a - b).abs())?;
        Ok(d.values().iter().copied().fold(0.0, f64::max))
    }

    /// Trapezoidal integral of the waveform over its whole window (e.g.
    /// charge, for a current trace).
    pub fn integral(&self) -> f64 {
        self.t
            .windows(2)
            .zip(self.v.windows(2))
            .map(|(t, v)| 0.5 * (v[0] + v[1]) * (t[1] - t[0]))
            .sum()
    }

    /// Central-difference derivative on the same grid (one-sided at the
    /// ends).
    pub fn derivative(&self) -> Self {
        let n = self.t.len();
        let mut dv = Vec::with_capacity(n);
        for i in 0..n {
            let d = if i == 0 {
                (self.v[1] - self.v[0]) / (self.t[1] - self.t[0])
            } else if i == n - 1 {
                (self.v[n - 1] - self.v[n - 2]) / (self.t[n - 1] - self.t[n - 2])
            } else {
                (self.v[i + 1] - self.v[i - 1]) / (self.t[i + 1] - self.t[i - 1])
            };
            dv.push(d);
        }
        Self {
            t: self.t.clone(),
            v: dv,
        }
    }

    /// Estimates the dominant oscillation frequency (Hz) from the mean
    /// spacing of mean-crossings — robust for ring-down traces like an
    /// under-damped SSN bounce. Returns `None` when fewer than three
    /// crossings exist (no oscillation to speak of).
    pub fn dominant_frequency(&self) -> Option<f64> {
        let mean = self.v.iter().sum::<f64>() / self.v.len() as f64;
        let crossings = self.crossings(mean);
        if crossings.len() < 3 {
            return None;
        }
        // Consecutive same-direction crossings are one period apart, so
        // adjacent crossings are half a period.
        let spans: Vec<f64> = crossings.windows(2).map(|w| w[1] - w[0]).collect();
        let mean_half_period = spans.iter().sum::<f64>() / spans.len() as f64;
        (mean_half_period > 0.0).then(|| 0.5 / mean_half_period)
    }

    /// Relative error of this waveform's peak against a reference trace's
    /// peak: `|peak - ref_peak| / |ref_peak|`.
    pub fn peak_relative_error(&self, reference: &Self) -> f64 {
        let p = self.peak().value;
        let r = reference.peak().value;
        if r.abs() < 1e-300 {
            (p - r).abs()
        } else {
            (p - r).abs() / r.abs()
        }
    }
}

impl fmt::Display for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (t0, t1) = self.window();
        write!(
            f,
            "Waveform[{} samples, t in [{t0:.3e}, {t1:.3e}], peak {:.4e}]",
            self.len(),
            self.peak().value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        Waveform::from_fn(0.0, 1.0, 11, |t| t).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Waveform::new(vec![0.0], vec![0.0]).is_err());
        assert!(Waveform::new(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(Waveform::new(vec![0.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(Waveform::new(vec![0.0, f64::NAN], vec![0.0, 1.0]).is_err());
        assert!(Waveform::from_fn(0.0, 1.0, 1, |_| 0.0).is_err());
        assert!(Waveform::from_fn(1.0, 0.0, 10, |_| 0.0).is_err());
    }

    #[test]
    fn sampling_is_linear_and_clamped() {
        let w = ramp();
        assert!((w.sample(0.55) - 0.55).abs() < 1e-12);
        assert_eq!(w.sample(-1.0), 0.0);
        assert_eq!(w.sample(2.0), 1.0);
        assert_eq!(w.sample(0.5), 0.5); // exact sample point
    }

    #[test]
    fn peak_parabolic_refinement() {
        // Quadratic peaking at t = 0.43 between samples.
        let w = Waveform::from_fn(0.0, 1.0, 21, |t| 1.0 - (t - 0.43).powi(2)).unwrap();
        let p = w.peak();
        assert!((p.time - 0.43).abs() < 1e-9, "time = {}", p.time);
        assert!((p.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lopsided_spacing_around_the_peak_is_not_extrapolated() {
        // An exact parabola, so a refinement would land on its vertex at
        // 1.0, above every sample; with one neighbour spacing more than four
        // times the other the peak must stay the largest sample.
        for ratio in [4.5, 10.0, 1e3, 1e9] {
            for sliver_right in [true, false] {
                let h = 0.1;
                let sliver = h / ratio;
                let t0 = 0.5;
                let mut t: Vec<f64> = (0..=5).map(|i| t0 - h * (5 - i) as f64).collect();
                if sliver_right {
                    t.extend([t0 + sliver, t0 + sliver + h]);
                } else {
                    t.insert(5, t0 - sliver);
                    t.extend([t0 + h, t0 + 2.0 * h]);
                }
                let v: Vec<f64> = t
                    .iter()
                    .map(|&x| 1.0 - (x - t0 - 0.3 * h).powi(2))
                    .collect();
                let largest = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let p = Waveform::new(t, v).unwrap().peak();
                assert!(
                    p.value <= largest,
                    "ratio {ratio}, sliver right {sliver_right}: peak {} above largest sample {largest}",
                    p.value
                );
            }
        }
    }

    #[test]
    fn peak_at_boundary_is_returned_unrefined() {
        let w = ramp();
        let p = w.peak();
        assert_eq!(p.time, 1.0);
        assert_eq!(p.value, 1.0);
    }

    #[test]
    fn trough_of_negative_bump() {
        let w = Waveform::from_fn(0.0, 1.0, 41, |t| (t - 0.3).powi(2)).unwrap();
        let p = w.trough();
        assert!((p.time - 0.3).abs() < 1e-9);
        assert!(p.value.abs() < 1e-9);
    }

    #[test]
    fn crossings_of_sine() {
        let w =
            Waveform::from_fn(0.0, 1.0, 1001, |t| (2.0 * std::f64::consts::PI * t).sin()).unwrap();
        let c = w.crossings(0.0);
        // Starts at 0 (touch) and crosses at 0.5; whether the endpoint
        // registers depends on sin(2*pi) rounding, so only require those two.
        assert!(c.len() >= 2, "{c:?}");
        assert!(c[0].abs() < 1e-12);
        assert!((c[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn first_rise_and_rise_time() {
        let w = ramp();
        assert!((w.first_rise_through(0.5).unwrap() - 0.5).abs() < 1e-12);
        assert!(w.first_rise_through(2.0).is_none());
        let rt = w.rise_time(1.0).unwrap();
        assert!((rt - 0.8).abs() < 1e-12);
    }

    #[test]
    fn settling_time_of_decay() {
        let w = Waveform::from_fn(0.0, 10.0, 1001, |t| (-t).exp()).unwrap();
        let ts = w.settling_time(0.0, 0.01).unwrap();
        assert!((ts - 0.01f64.recip().ln()).abs() < 0.02, "ts = {ts}");
        assert!(w.settling_time(5.0, 0.01).is_none());
    }

    #[test]
    fn resample_preserves_shape() {
        let w = Waveform::from_fn(0.0, 1.0, 101, |t| t * t).unwrap();
        let r = w.resample(11).unwrap();
        assert_eq!(r.len(), 11);
        assert!((r.sample(0.5) - 0.25).abs() < 1e-3);
        let onto = w.resample_onto(&[0.1, 0.2, 0.9]).unwrap();
        assert_eq!(onto.len(), 3);
    }

    #[test]
    fn map_and_zip() {
        let w = ramp();
        let doubled = w.map(|v| 2.0 * v);
        assert_eq!(doubled.sample(0.5), 1.0);
        let sum = w.zip_with(&doubled, |a, b| a + b).unwrap();
        assert!((sum.sample(0.5) - 1.5).abs() < 1e-12);
        let shifted = Waveform::from_fn(5.0, 6.0, 5, |_| 0.0).unwrap();
        assert_eq!(
            w.zip_with(&shifted, |a, _| a).unwrap_err(),
            WaveformError::DisjointWindows
        );
    }

    #[test]
    fn error_metrics() {
        let a = ramp();
        let b = a.map(|v| v + 0.1);
        assert!((a.max_abs_error(&b).unwrap() - 0.1).abs() < 1e-12);
        let c = a.map(|v| v * 1.05);
        assert!((c.peak_relative_error(&a) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn shifted_moves_the_axis_only() {
        let w = ramp().shifted(-0.25);
        assert_eq!(w.window(), (-0.25, 0.75));
        assert!((w.sample(0.25) - 0.5).abs() < 1e-12);
        assert_eq!(w.values(), ramp().values());
    }

    #[test]
    fn clipped_extracts_a_window() {
        let w = Waveform::from_fn(0.0, 1.0, 101, |t| t).unwrap();
        let c = w.clipped(0.25, 0.75).unwrap();
        assert_eq!(c.window(), (0.25, 0.75));
        assert!((c.sample(0.5) - 0.5).abs() < 1e-12);
        assert!((c.peak().value - 0.75).abs() < 1e-12);
        // Clamp to the waveform window when the clip extends past it.
        let c = w.clipped(0.9, 5.0).unwrap();
        assert_eq!(c.window(), (0.9, 1.0));
        // Errors.
        assert!(w.clipped(0.5, 0.5).is_err());
        assert!(matches!(
            w.clipped(2.0, 3.0),
            Err(WaveformError::DisjointWindows)
        ));
        // Degenerate sliver between two samples still yields a waveform.
        let sliver = w.clipped(0.501, 0.504).unwrap();
        assert_eq!(sliver.len(), 2);
    }

    #[test]
    fn integral_of_ramp() {
        let w = Waveform::from_fn(0.0, 2.0, 101, |t| t).unwrap();
        assert!((w.integral() - 2.0).abs() < 1e-12);
        // Charge of a constant 1 mA over 1 ns = 1 pC.
        let i = Waveform::from_fn(0.0, 1e-9, 11, |_| 1e-3).unwrap();
        assert!((i.integral() - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn derivative_of_quadratic() {
        let w = Waveform::from_fn(0.0, 1.0, 201, |t| t * t).unwrap();
        let d = w.derivative();
        // dy/dx = 2t (central difference is exact for quadratics).
        assert!((d.sample(0.5) - 1.0).abs() < 1e-10);
        assert!((d.sample(0.25) - 0.5).abs() < 1e-10);
        // One-sided ends are first-order but close on this grid.
        assert!((d.values()[0]).abs() < 0.01);
    }

    #[test]
    fn dominant_frequency_of_ringdown() {
        // Damped 2 GHz ring.
        let f0 = 2.0e9;
        let w = Waveform::from_fn(0.0, 3e-9, 2001, |t| {
            (-t / 2e-9).exp() * (2.0 * std::f64::consts::PI * f0 * t).sin()
        })
        .unwrap();
        let f = w.dominant_frequency().expect("oscillates");
        assert!((f - f0).abs() / f0 < 0.02, "f = {f:.3e}");
    }

    #[test]
    fn dominant_frequency_none_for_monotone() {
        assert!(ramp().dominant_frequency().is_none());
    }

    #[test]
    fn display_and_iteration() {
        let w = ramp();
        assert!(w.to_string().contains("11 samples"));
        assert_eq!(w.iter().count(), 11);
        assert!(!w.is_empty());
        assert_eq!(w.window(), (0.0, 1.0));
    }
}
