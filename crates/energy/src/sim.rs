//! The energy simulator: a virtual clock plus power, battery, and thermal
//! integration. This is the substitute for the paper's physical testbeds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::battery::BatteryModel;
use crate::fault::{FaultInjector, SensorKind, SensorRead};
use crate::platform::{Platform, WorkKind};
use crate::thermal::ThermalModel;

/// A point-in-time reading produced when a run finishes.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Total energy consumed, in joules, including measurement noise.
    pub energy_j: f64,
    /// Virtual wall-clock duration of the run, in seconds.
    pub time_s: f64,
    /// Peak CPU temperature observed, in °C.
    pub peak_temp_c: f64,
    /// Battery level at the end of the run.
    pub battery_level: f64,
}

/// One periodic reading of the simulator's observable state, taken on the
/// virtual clock by the unified sampler ([`EnergySim::enable_sampling`]).
///
/// A sample carries everything the reporting layers need — the E3
/// temperature traces read `(t_s, temp_c)`, telemetry summaries read the
/// battery and energy trajectories — so one sampling pass feeds them all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Virtual time of the sample, in seconds.
    pub t_s: f64,
    /// CPU temperature, in °C.
    pub temp_c: f64,
    /// Battery level fraction.
    pub battery: f64,
    /// Cumulative energy consumed so far, in joules (noise-free).
    pub energy_j: f64,
}

/// The single periodic-sampling mechanism: one interval, one stream of
/// [`Sample`]s, consulted once per integration sub-step.
#[derive(Clone, Debug, Default)]
struct Sampler {
    interval_s: Option<f64>,
    next_s: f64,
    points: Vec<Sample>,
    /// Sample ticks lost to injected sampler stalls.
    stalled: u64,
}

/// The core simulator: executes abstract work and idle periods against a
/// [`Platform`], integrating energy, battery drain, and CPU temperature on
/// a virtual clock.
///
/// Runs are deterministic for a given seed; the per-run measurement noise
/// (the paper's relative standard deviation) is applied when reading the
/// final [`Measurement`].
///
/// # Example
///
/// ```
/// use ent_energy::{EnergySim, Platform, WorkKind};
///
/// let mut sim = EnergySim::new(Platform::system_a(), 42);
/// sim.do_work(WorkKind::Cpu, 2.0e9); // ~1 s of full-speed CPU work
/// sim.sleep_ms(500.0);
/// let m = sim.finish();
/// assert!(m.time_s > 1.4 && m.time_s < 1.6);
/// assert!(m.energy_j > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct EnergySim {
    platform: Platform,
    /// `platform.power_at(0.0)` and `power_at(1.0)`, computed once: every
    /// `sleep_ms` and `do_work` draws one of the two, and the platform
    /// cannot change after construction.
    idle_watts: f64,
    busy_watts: f64,
    time_s: f64,
    energy_j: f64,
    battery: BatteryModel,
    thermal: ThermalModel,
    peak_temp_c: f64,
    rng: StdRng,
    sampler: Sampler,
    /// Optional deterministic fault injector. `None` (the default) keeps
    /// the simulator on exactly its historical code path.
    faults: Option<FaultInjector>,
}

/// Default battery capacity: a laptop-scale 50 Wh pack, in joules. The
/// experiment harness overrides the *level*, not the capacity.
const DEFAULT_BATTERY_J: f64 = 50.0 * 3600.0;

impl EnergySim {
    /// Creates a simulator for a platform with a given RNG seed.
    pub fn new(platform: Platform, seed: u64) -> Self {
        let thermal = ThermalModel::new(platform.thermal);
        let peak = thermal.temperature_c();
        EnergySim {
            idle_watts: platform.power_at(0.0),
            busy_watts: platform.power_at(1.0),
            platform,
            time_s: 0.0,
            energy_j: 0.0,
            battery: BatteryModel::new(DEFAULT_BATTERY_J),
            thermal,
            peak_temp_c: peak,
            rng: StdRng::seed_from_u64(seed),
            sampler: Sampler::default(),
            faults: None,
        }
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Enables periodic state sampling at `interval_s` (the E3 temperature
    /// experiments read the temperature column; telemetry summaries read
    /// the battery and energy trajectories).
    pub fn enable_sampling(&mut self, interval_s: f64) {
        self.sampler.interval_s = Some(interval_s.max(1e-3));
        self.sampler.next_s = self.time_s;
        self.sampler.points.clear();
    }

    /// The collected samples, in virtual-time order.
    pub fn samples(&self) -> &[Sample] {
        &self.sampler.points
    }

    /// Sample ticks that were lost to injected sampler stalls.
    pub fn samples_stalled(&self) -> u64 {
        self.sampler.stalled
    }

    /// Installs (or removes) a deterministic fault injector. Brownouts
    /// drain real charge during `advance`; sensor reads
    /// through [`read_sensor`](Self::read_sensor) observe the injected
    /// dropout/stale/spike/burst regime; sampler ticks may stall. With a
    /// no-op plan (or `None`) every observable is bit-identical to an
    /// uninjected run.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Reads a sensor through the fault layer. Without an injector this is
    /// exactly [`battery_level`](Self::battery_level) /
    /// [`temperature_c`](Self::temperature_c) wrapped in
    /// [`SensorRead::Clean`].
    pub fn read_sensor(&self, kind: SensorKind) -> SensorRead {
        let true_value = match kind {
            SensorKind::Battery => self.battery.level(),
            SensorKind::Temperature => self.thermal.temperature_c(),
        };
        match &self.faults {
            None => SensorRead::Clean(true_value),
            Some(inj) => inj.observe(kind, self.time_s, true_value),
        }
    }

    /// Pins the battery level (fraction), as the harness does before each
    /// experiment to select the boot mode.
    pub fn set_battery_level(&mut self, fraction: f64) {
        self.battery.set_level(fraction);
    }

    /// The battery level queried by `Ext.battery()`.
    pub fn battery_level(&self) -> f64 {
        self.battery.level()
    }

    /// The CPU temperature queried by `Ext.temperature()`.
    pub fn temperature_c(&self) -> f64 {
        self.thermal.temperature_c()
    }

    /// The virtual clock, in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Cumulative energy so far (noise-free; the meter abstractions and
    /// [`EnergySim::finish`] add measurement noise).
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Executes `units` of work of the given kind at full utilization.
    pub fn do_work(&mut self, kind: WorkKind, units: f64) {
        let dt = self.platform.seconds_for(kind, units);
        self.advance(dt, self.busy_watts);
    }

    /// Idles for a number of milliseconds (the ENT `Sim.sleepMs` builtin).
    pub fn sleep_ms(&mut self, ms: f64) {
        self.advance(ms.max(0.0) / 1000.0, self.idle_watts);
    }

    /// Runs for `duration_s` at a fractional utilization — the model for
    /// time-fixed workloads (video capture, emulation, Apps) whose energy
    /// differences come from *power*, not runtime.
    pub fn run_duty_cycle(&mut self, duration_s: f64, utilization: f64) {
        self.advance(duration_s, self.platform.power_at(utilization));
    }

    /// A uniform random double in `[0, 1)` (the ENT `Sim.rand` builtin) —
    /// drawn from the seeded stream so runs stay reproducible.
    pub fn rand(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// The longest single `advance` the simulator will integrate: about
    /// 11.5 virtual days. A hostile `Sim.sleepMs(9e18)` must not spin the
    /// 0.25 s sub-step loop effectively forever.
    const MAX_ADVANCE_S: f64 = 1.0e6;

    /// Advances the clock by `dt` seconds drawing `watts`, integrating
    /// power, battery, temperature, and the trace.
    fn advance(&mut self, dt: f64, watts: f64) {
        // NaN returns here rather than reaching the clamp below —
        // NaN.min(x) is x in Rust.
        if dt.is_nan() || dt <= 0.0 {
            return;
        }
        let dt = dt.min(Self::MAX_ADVANCE_S);
        // Integrate in sub-steps so traces and thermal dynamics resolve. A
        // sub-step is at most 0.25 s, so its thermal update is exactly one
        // of `ThermalModel::step`'s Euler steps. The integration state
        // stays in locals across the loop; brownouts and sampling run out
        // of line, only when installed, on the state stored back first.
        let hooks = self.faults.is_some() || self.sampler.interval_s.is_some();
        let heating = self.thermal.heating(watts);
        let mut temp_c = self.thermal.temperature_c();
        let mut peak_temp_c = self.peak_temp_c;
        let mut energy_j = self.energy_j;
        let mut time_s = self.time_s;
        let mut remaining = dt;
        while remaining > 0.0 {
            let h = remaining.min(0.25);
            let step_start_s = time_s;
            temp_c = self.thermal.euler(temp_c, heating, h);
            peak_temp_c = peak_temp_c.max(temp_c);
            let joules = watts * h;
            energy_j += joules;
            self.battery.drain(joules);
            time_s += h;
            if hooks {
                self.thermal.set_temperature_c(temp_c);
                self.energy_j = energy_j;
                self.time_s = time_s;
                self.sub_step_hooks(step_start_s);
            }
            remaining -= h;
        }
        self.thermal.set_temperature_c(temp_c);
        self.peak_temp_c = peak_temp_c;
        self.energy_j = energy_j;
        self.time_s = time_s;
    }

    /// The brownout and sampling work at the end of a sub-step that began
    /// at `step_start_s`, for a simulator with a fault injector or the
    /// sampler installed.
    #[inline(never)]
    fn sub_step_hooks(&mut self, step_start_s: f64) {
        if let Some(inj) = &self.faults {
            // Brownout steps scheduled inside this sub-step drain real
            // charge (fraction of capacity), beyond the consumed energy.
            let drop = inj.brownout_drop(step_start_s, self.time_s);
            if drop > 0.0 {
                self.battery.drain(drop * self.battery.capacity_joules());
            }
        }
        if let Some(interval) = self.sampler.interval_s {
            while self.time_s >= self.sampler.next_s {
                let stalled = self
                    .faults
                    .as_ref()
                    .is_some_and(|inj| inj.sampler_stalled(self.sampler.next_s));
                if stalled {
                    self.sampler.stalled += 1;
                } else {
                    self.sampler.points.push(Sample {
                        t_s: self.sampler.next_s,
                        temp_c: self.thermal.temperature_c(),
                        battery: self.battery.level(),
                        energy_j: self.energy_j,
                    });
                }
                self.sampler.next_s += interval;
            }
        }
    }

    /// Finishes the run: applies the platform's per-run measurement noise
    /// and returns the final [`Measurement`]. The simulator may continue to
    /// be used afterwards (e.g. between iterations); `finish` is
    /// non-destructive.
    pub fn finish(&mut self) -> Measurement {
        let noise: f64 = 1.0 + self.platform.noise_rsd * self.sample_standard_normal();
        Measurement {
            energy_j: self.energy_j * noise.max(0.5),
            time_s: self.time_s,
            peak_temp_c: self.peak_temp_c,
            battery_level: self.battery.level(),
        }
    }

    /// Box–Muller standard normal from the seeded stream.
    fn sample_standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen::<f64>().max(1e-12);
        let u2: f64 = self.rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// A jRAPL-style energy meter: records the counter at construction and
/// reports the delta, the way the paper instruments System A.
///
/// # Example
///
/// ```
/// use ent_energy::{EnergySim, Platform, RaplMeter, WorkKind};
///
/// let mut sim = EnergySim::new(Platform::system_a(), 1);
/// let meter = RaplMeter::start(&sim);
/// sim.do_work(WorkKind::Cpu, 1.0e9);
/// assert!(meter.joules(&sim) > 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RaplMeter {
    start_j: f64,
}

impl RaplMeter {
    /// Starts a measurement window.
    pub fn start(sim: &EnergySim) -> Self {
        RaplMeter {
            start_j: sim.energy_j(),
        }
    }

    /// Energy consumed since the window opened.
    pub fn joules(&self, sim: &EnergySim) -> f64 {
        sim.energy_j() - self.start_j
    }
}

/// A Watts Up? Pro-style wall power meter: like [`RaplMeter`] but measures
/// whole-device energy *including idle draw over elapsed time* — which is
/// what makes time-fixed workloads register savings only through power.
#[derive(Clone, Copy, Debug)]
pub struct WattsUpMeter {
    start_j: f64,
    start_s: f64,
}

impl WattsUpMeter {
    /// Starts a measurement window.
    pub fn start(sim: &EnergySim) -> Self {
        WattsUpMeter {
            start_j: sim.energy_j(),
            start_s: sim.time_s(),
        }
    }

    /// Whole-device energy consumed since the window opened.
    pub fn joules(&self, sim: &EnergySim) -> f64 {
        sim.energy_j() - self.start_j
    }

    /// Average power over the window.
    pub fn average_watts(&self, sim: &EnergySim) -> f64 {
        let dt = sim.time_s() - self.start_s;
        if dt <= 0.0 {
            0.0
        } else {
            self.joules(sim) / dt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_advances_time_and_energy() {
        let mut sim = EnergySim::new(Platform::system_a(), 7);
        sim.do_work(WorkKind::Cpu, 2.0e9);
        assert!((sim.time_s() - 1.0).abs() < 1e-9);
        assert!((sim.energy_j() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn sleep_draws_idle_power() {
        let mut sim = EnergySim::new(Platform::system_a(), 7);
        sim.sleep_ms(1000.0);
        assert!((sim.energy_j() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn duty_cycle_power_is_between_idle_and_active() {
        let mut sim = EnergySim::new(Platform::system_b(), 7);
        sim.run_duty_cycle(10.0, 0.5);
        let avg_w = sim.energy_j() / sim.time_s();
        let p = Platform::system_b();
        assert!(avg_w > p.idle_watts && avg_w < p.active_watts);
    }

    #[test]
    fn battery_drains_with_consumption() {
        let mut sim = EnergySim::new(Platform::system_a(), 7);
        sim.set_battery_level(0.5);
        let before = sim.battery_level();
        sim.do_work(WorkKind::Cpu, 2.0e10); // 10 s at 30 W = 300 J
        assert!(sim.battery_level() < before);
    }

    #[test]
    fn identical_seeds_give_identical_measurements() {
        let run = |seed| {
            let mut sim = EnergySim::new(Platform::system_c(), seed);
            sim.do_work(WorkKind::Encode, 5.0e8);
            sim.finish()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).energy_j, run(100).energy_j);
    }

    #[test]
    fn noise_stays_within_a_few_percent() {
        let raw = {
            let mut sim = EnergySim::new(Platform::system_a(), 3);
            sim.do_work(WorkKind::Cpu, 2.0e9);
            sim.energy_j()
        };
        for seed in 0..50 {
            let mut sim = EnergySim::new(Platform::system_a(), seed);
            sim.do_work(WorkKind::Cpu, 2.0e9);
            let m = sim.finish();
            let rel = (m.energy_j - raw).abs() / raw;
            assert!(rel < 0.08, "noise too large: {rel}");
        }
    }

    #[test]
    fn sampling_collects_points() {
        let mut sim = EnergySim::new(Platform::system_a(), 7);
        sim.enable_sampling(0.5);
        sim.do_work(WorkKind::Cpu, 4.0e9); // 2 s
        assert!(sim.samples().len() >= 4);
        // Times strictly increasing, energy non-decreasing, battery
        // non-increasing:
        for w in sim.samples().windows(2) {
            assert!(w[0].t_s < w[1].t_s);
            assert!(w[0].energy_j <= w[1].energy_j);
            assert!(w[0].battery >= w[1].battery);
        }
    }

    #[test]
    fn peak_temperature_is_tracked() {
        let mut sim = EnergySim::new(Platform::system_a(), 7);
        sim.do_work(WorkKind::Cpu, 6.0e10); // 30 s full load
        let m = sim.finish();
        assert!(m.peak_temp_c > Platform::system_a().thermal.ambient_c);
    }

    #[test]
    fn meters_report_window_deltas() {
        let mut sim = EnergySim::new(Platform::system_b(), 5);
        sim.do_work(WorkKind::Cpu, 3.0e8); // pre-window
        let rapl = RaplMeter::start(&sim);
        let wu = WattsUpMeter::start(&sim);
        sim.do_work(WorkKind::Cpu, 3.0e8); // 1 s active
        sim.sleep_ms(1000.0);
        assert!((rapl.joules(&sim) - wu.joules(&sim)).abs() < 1e-9);
        let avg = wu.average_watts(&sim);
        let p = Platform::system_b();
        assert!(avg > p.idle_watts && avg < p.active_watts);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut a = EnergySim::new(Platform::system_a(), 11);
        let mut b = EnergySim::new(Platform::system_a(), 11);
        for _ in 0..10 {
            assert_eq!(a.rand(), b.rand());
        }
    }

    #[test]
    fn hostile_durations_terminate_instead_of_spinning() {
        let mut sim = EnergySim::new(Platform::system_a(), 7);
        sim.sleep_ms(f64::NAN);
        assert_eq!(sim.time_s(), 0.0);
        sim.sleep_ms(i64::MAX as f64); // ~292 million years requested
        assert!((sim.time_s() - EnergySim::MAX_ADVANCE_S).abs() < 1e-6);
    }

    #[test]
    fn noop_injector_changes_nothing() {
        use crate::fault::{FaultInjector, FaultPlan};
        let run = |inject: bool| {
            let mut sim = EnergySim::new(Platform::system_a(), 42);
            if inject {
                sim.set_fault_injector(Some(FaultInjector::new(FaultPlan::default(), 9)));
            }
            sim.set_battery_level(0.75);
            sim.enable_sampling(0.5);
            sim.do_work(WorkKind::Cpu, 4.0e9);
            sim.sleep_ms(300.0);
            (
                sim.samples().to_vec(),
                sim.samples_stalled(),
                sim.battery_level(),
                sim.finish(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn brownouts_drain_real_charge() {
        use crate::fault::{FaultInjector, FaultPlan};
        let plan = FaultPlan {
            brownouts: 2,
            brownout_drop: 0.1,
            horizon_s: 5.0,
            ..FaultPlan::default()
        };
        let base = {
            let mut sim = EnergySim::new(Platform::system_a(), 42);
            sim.set_battery_level(0.9);
            sim.do_work(WorkKind::Cpu, 2.0e10); // 10 s, past the horizon
            sim.battery_level()
        };
        let mut sim = EnergySim::new(Platform::system_a(), 42);
        sim.set_fault_injector(Some(FaultInjector::new(plan, 3)));
        sim.set_battery_level(0.9);
        sim.do_work(WorkKind::Cpu, 2.0e10);
        let faulted = sim.battery_level();
        assert!(
            (base - faulted - 0.2).abs() < 1e-9,
            "expected two 0.1 brownout steps: base {base}, faulted {faulted}"
        );
    }

    #[test]
    fn sampler_stalls_drop_ticks_but_count_them() {
        use crate::fault::{FaultInjector, FaultPlan};
        let plan = FaultPlan {
            stall_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut sim = EnergySim::new(Platform::system_a(), 42);
        sim.set_fault_injector(Some(FaultInjector::new(plan, 3)));
        sim.enable_sampling(0.5);
        sim.do_work(WorkKind::Cpu, 4.0e9); // 2 s
        assert!(sim.samples().is_empty());
        assert!(sim.samples_stalled() >= 4);
    }

    #[test]
    fn read_sensor_reports_faults_only_when_injected() {
        use crate::fault::{FaultInjector, FaultPlan, SensorKind, SensorRead};
        let mut sim = EnergySim::new(Platform::system_a(), 42);
        sim.set_battery_level(0.6);
        assert_eq!(
            sim.read_sensor(SensorKind::Battery),
            SensorRead::Clean(sim.battery_level())
        );
        sim.set_fault_injector(Some(FaultInjector::new(
            FaultPlan {
                dropout_rate: 1.0,
                ..FaultPlan::default()
            },
            5,
        )));
        assert_eq!(sim.read_sensor(SensorKind::Battery), SensorRead::Dropped);
        assert_eq!(
            sim.read_sensor(SensorKind::Temperature),
            SensorRead::Dropped
        );
    }

    /// The sub-step loop as it read before its state moved into locals,
    /// `ThermalModel::step` inlined: the oracle for
    /// `the_sub_step_loop_replays_the_reference_loop_bit_for_bit`.
    fn reference_advance(sim: &mut EnergySim, dt: f64, watts: f64) {
        if dt.is_nan() || dt <= 0.0 {
            return;
        }
        let dt = dt.min(EnergySim::MAX_ADVANCE_S);
        let params = sim.platform.thermal;
        let mut remaining = dt;
        while remaining > 0.0 {
            let h = remaining.min(0.25);
            let step_start_s = sim.time_s;
            let mut temp_c = sim.thermal.temperature_c();
            let mut thermal_left = h.max(0.0);
            while thermal_left > 0.0 {
                let th = thermal_left.min(0.5);
                let d = params.heat * watts - params.cool * (temp_c - params.ambient_c);
                temp_c += d * th;
                thermal_left -= th;
            }
            sim.thermal.set_temperature_c(temp_c);
            sim.peak_temp_c = sim.peak_temp_c.max(sim.thermal.temperature_c());
            sim.energy_j += watts * h;
            sim.battery.drain(watts * h);
            sim.time_s += h;
            if let Some(inj) = &sim.faults {
                let drop = inj.brownout_drop(step_start_s, sim.time_s);
                if drop > 0.0 {
                    sim.battery.drain(drop * sim.battery.capacity_joules());
                }
            }
            if let Some(interval) = sim.sampler.interval_s {
                while sim.time_s >= sim.sampler.next_s {
                    let stalled = sim
                        .faults
                        .as_ref()
                        .is_some_and(|inj| inj.sampler_stalled(sim.sampler.next_s));
                    if stalled {
                        sim.sampler.stalled += 1;
                    } else {
                        sim.sampler.points.push(Sample {
                            t_s: sim.sampler.next_s,
                            temp_c: sim.thermal.temperature_c(),
                            battery: sim.battery.level(),
                            energy_j: sim.energy_j,
                        });
                    }
                    sim.sampler.next_s += interval;
                }
            }
            remaining -= h;
        }
    }

    /// Every observable of a simulator, as bits.
    fn state_bits(sim: &EnergySim) -> Vec<u64> {
        let mut bits = vec![
            sim.time_s.to_bits(),
            sim.energy_j.to_bits(),
            sim.battery.charge_joules().to_bits(),
            sim.thermal.temperature_c().to_bits(),
            sim.peak_temp_c.to_bits(),
            sim.sampler.next_s.to_bits(),
            sim.sampler.stalled,
        ];
        for p in &sim.sampler.points {
            bits.extend([
                p.t_s.to_bits(),
                p.temp_c.to_bits(),
                p.battery.to_bits(),
                p.energy_j.to_bits(),
            ]);
        }
        bits
    }

    #[test]
    fn the_sub_step_loop_replays_the_reference_loop_bit_for_bit() {
        use crate::fault::{FaultInjector, FaultPlan};
        const KINDS: [WorkKind; 6] = [
            WorkKind::Cpu,
            WorkKind::Io,
            WorkKind::Net,
            WorkKind::Render,
            WorkKind::Encode,
            WorkKind::Crypto,
        ];
        let plan = FaultPlan {
            brownouts: 6,
            brownout_drop: 0.03,
            stall_rate: 0.3,
            horizon_s: 30.0,
            ..FaultPlan::default()
        };
        for seed in 0..64u64 {
            let (faults, sampling) = (seed % 2 == 1, seed / 2 % 2 == 1);
            let platform = if seed / 4 % 2 == 0 {
                Platform::system_a()
            } else {
                Platform::system_b()
            };
            let mut sim = EnergySim::new(platform, seed);
            sim.set_battery_level(0.9);
            if faults {
                sim.set_fault_injector(Some(FaultInjector::new(plan.clone(), seed)));
            }
            if sampling {
                sim.enable_sampling(0.3);
            }
            let mut reference = sim.clone();
            let mut ops = StdRng::seed_from_u64(seed);
            // Uniform in `[lo, hi)`, and an index below `n`.
            let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * ops.gen::<f64>();
            for _ in 0..40 {
                match uniform(0.0, 3.0) as usize {
                    0 => {
                        let kind = KINDS[uniform(0.0, KINDS.len() as f64) as usize];
                        let units = uniform(-1.0e8, 6.0e9);
                        sim.do_work(kind, units);
                        let dt = reference.platform.seconds_for(kind, units);
                        let watts = reference.busy_watts;
                        reference_advance(&mut reference, dt, watts);
                    }
                    1 => {
                        let ms = uniform(-50.0, 2500.0);
                        sim.sleep_ms(ms);
                        let watts = reference.idle_watts;
                        reference_advance(&mut reference, ms.max(0.0) / 1000.0, watts);
                    }
                    _ => {
                        let (duration, utilization) = (uniform(0.0, 3.0), uniform(0.0, 1.0));
                        sim.run_duty_cycle(duration, utilization);
                        let watts = reference.platform.power_at(utilization);
                        reference_advance(&mut reference, duration, watts);
                    }
                }
                assert_eq!(state_bits(&sim), state_bits(&reference), "seed {seed}");
            }
            let (m, r) = (sim.finish(), reference.finish());
            assert_eq!(
                [m.energy_j, m.time_s, m.peak_temp_c, m.battery_level].map(f64::to_bits),
                [r.energy_j, r.time_s, r.peak_temp_c, r.battery_level].map(f64::to_bits),
                "seed {seed}"
            );
        }
    }
}
