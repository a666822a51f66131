//! Newton's-law CPU thermal model, driving the paper's temperature-aware
//! (E3) experiments.

use crate::platform::ThermalParams;

/// CPU temperature that heats with dissipated power and cools toward
/// ambient: `dT/dt = heat · P − cool · (T − ambient)`.
///
/// The steady-state temperature at constant power `P` is
/// `ambient + heat·P/cool`, which is how the platform presets are
/// calibrated (System A saturates near 80 °C under full load, far above the
/// paper's 65 °C `overheating` threshold).
///
/// # Example
///
/// ```
/// use ent_energy::{Platform, ThermalModel};
///
/// let p = Platform::system_a();
/// let mut t = ThermalModel::new(p.thermal);
/// let start = t.temperature_c();
/// t.step(p.active_watts, 10.0); // 10 s of full power
/// assert!(t.temperature_c() > start);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalModel {
    params: ThermalParams,
    temp_c: f64,
}

impl ThermalModel {
    /// Creates a thermal model at ambient temperature.
    pub fn new(params: ThermalParams) -> Self {
        ThermalModel {
            temp_c: params.ambient_c,
            params,
        }
    }

    /// The current CPU temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// Resets to ambient.
    pub fn reset(&mut self) {
        self.temp_c = self.params.ambient_c;
    }

    /// Advances the model by `dt` seconds at dissipated power `watts`,
    /// integrating in sub-steps for stability on long intervals.
    pub fn step(&mut self, watts: f64, dt: f64) {
        let heating = self.heating(watts);
        let mut remaining = dt.max(0.0);
        // Sub-step at most 0.5 s to keep the explicit Euler update stable.
        while remaining > 0.0 {
            let h = remaining.min(0.5);
            self.temp_c = self.euler(self.temp_c, heating, h);
            remaining -= h;
        }
    }

    /// The heating term `heat · watts` of the update at power `watts`.
    #[inline]
    pub(crate) fn heating(&self, watts: f64) -> f64 {
        self.params.heat * watts
    }

    /// One explicit Euler step of `h` seconds from `temp_c` with heating
    /// term `heating` ([`Self::heating`]): for `0 < h ≤ 0.5` exactly the
    /// update [`Self::step`] makes.
    #[inline]
    pub(crate) fn euler(&self, temp_c: f64, heating: f64, h: f64) -> f64 {
        temp_c + (heating - self.params.cool * (temp_c - self.params.ambient_c)) * h
    }

    /// Sets the current temperature, for callers that integrate with
    /// [`Self::euler`].
    #[inline]
    pub(crate) fn set_temperature_c(&mut self, temp_c: f64) {
        self.temp_c = temp_c;
    }

    /// The temperature the model converges to at constant power.
    pub fn steady_state_c(&self, watts: f64) -> f64 {
        self.params.ambient_c + self.params.heat * watts / self.params.cool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    #[test]
    fn heats_under_load_and_cools_when_idle() {
        let p = Platform::system_a();
        let mut t = ThermalModel::new(p.thermal);
        let ambient = t.temperature_c();
        t.step(p.active_watts, 30.0);
        let hot = t.temperature_c();
        assert!(hot > ambient + 5.0, "should heat noticeably: {hot}");
        t.step(0.0, 120.0);
        assert!(t.temperature_c() < hot, "should cool toward ambient");
    }

    #[test]
    fn converges_to_steady_state() {
        let p = Platform::system_a();
        let mut t = ThermalModel::new(p.thermal);
        let target = t.steady_state_c(p.active_watts);
        for _ in 0..2000 {
            t.step(p.active_watts, 1.0);
        }
        assert!(
            (t.temperature_c() - target).abs() < 0.5,
            "converged to {} vs steady {}",
            t.temperature_c(),
            target
        );
    }

    #[test]
    fn system_a_saturates_above_overheating_threshold() {
        // The E3 experiment needs full-load System A to exceed 65 °C.
        let p = Platform::system_a();
        let t = ThermalModel::new(p.thermal);
        assert!(t.steady_state_c(p.active_watts) > 65.0);
        // …and idle to sit below the 60 °C `hot` threshold.
        assert!(t.steady_state_c(p.idle_watts) < 60.0);
    }

    #[test]
    fn reset_returns_to_ambient() {
        let p = Platform::system_b();
        let mut t = ThermalModel::new(p.thermal);
        t.step(p.active_watts, 60.0);
        t.reset();
        assert_eq!(t.temperature_c(), p.thermal.ambient_c);
    }

    #[test]
    fn long_steps_are_stable() {
        let p = Platform::system_a();
        let mut t = ThermalModel::new(p.thermal);
        t.step(p.active_watts, 10_000.0);
        let temp = t.temperature_c();
        assert!(temp.is_finite());
        assert!(temp < 120.0, "no numeric blowup: {temp}");
    }
}
