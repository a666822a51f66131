//! Per-tenant admission control: token-bucket request gas plus an energy
//! budget.
//!
//! Each tenant owns a token bucket (capacity = burst allowance, refill =
//! sustained rate) and a running account of simulated joules its jobs
//! have spent. Admission asks both: a tenant out of tokens is
//! `rate_limited`, a tenant past its energy budget is `energy_budget` —
//! the service-level analogue of the paper's energy bounds on snapshot
//! windows.
//!
//! The system mode scales both knobs conservatively: `degraded` halves
//! the refill rate, `energy_saver` quarters it and halves the energy
//! budget. Time is **caller-supplied virtual milliseconds**, so the soak
//! harness replays admission decisions exactly; the TCP front-end feeds
//! wall-clock.
//!
//! The tenant table is bounded ([`MAX_TENANTS`]), so a client rotating
//! tenant names cannot grow the daemon without bound. At capacity, one
//! pass drops every tenant that is indistinguishable from a fresh one: a
//! full bucket and no recorded spend. A tenant with recorded spend is
//! never dropped, or a client could reset its own energy budget that way.

use std::collections::HashMap;

use crate::modes::SystemMode;

/// Admission policy knobs (per tenant; every tenant gets the same
/// policy in this reproduction).
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Token bucket capacity: how many requests a tenant may burst.
    pub burst: f64,
    /// Tokens refilled per virtual second under `normal` mode.
    pub refill_per_s: f64,
    /// Simulated joules a tenant may spend before being shed
    /// (`f64::INFINITY` disables the budget).
    pub energy_budget_j: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            burst: 16.0,
            refill_per_s: 50.0,
            energy_budget_j: f64::INFINITY,
        }
    }
}

/// Tenants the table holds at most: far above the 512 tenants the
/// benchmark drives, and a few MiB of entries at most.
pub const MAX_TENANTS: usize = 1 << 16;

/// Why admission shed a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionShed {
    /// The tenant's token bucket is empty.
    RateLimited,
    /// The tenant has spent its energy budget.
    EnergyBudget,
    /// A tenant not yet in the table arrived while it was full and no
    /// entry could be dropped.
    TenantTableFull,
}

#[derive(Clone, Debug)]
struct Tenant {
    tokens: f64,
    last_refill_ms: u64,
    energy_spent_j: f64,
}

impl Tenant {
    /// The bucket's tokens at `now_ms`, refilled at `rate` tokens per
    /// second since the last refill and capped at `burst`.
    fn tokens_at(&self, now_ms: u64, rate: f64, burst: f64) -> f64 {
        if now_ms > self.last_refill_ms {
            let elapsed_s = (now_ms - self.last_refill_ms) as f64 / 1000.0;
            (self.tokens + elapsed_s * rate).min(burst)
        } else {
            self.tokens
        }
    }
}

/// The admission controller: one bucket + energy account per tenant.
#[derive(Clone, Debug)]
pub struct Admission {
    config: AdmissionConfig,
    tenants: HashMap<String, Tenant>,
    /// [`MAX_TENANTS`], or less in tests that fill the table.
    max_tenants: usize,
    /// The earliest time a pass over the full table is worth making
    /// again (see [`Admission::make_room`]).
    next_sweep_ms: u64,
}

impl Admission {
    /// A controller with no tenants yet; tenants materialize on first
    /// contact with a full bucket.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            tenants: HashMap::new(),
            max_tenants: MAX_TENANTS,
            next_sweep_ms: 0,
        }
    }

    /// Mode-scaled refill rate (tokens per virtual second).
    fn refill_rate(&self, mode: SystemMode) -> f64 {
        let scale = match mode {
            SystemMode::Normal => 1.0,
            SystemMode::Degraded => 0.5,
            // `fallback_only` sheds run work before admission is even
            // consulted; the floor scale covers static ops.
            SystemMode::EnergySaver | SystemMode::FallbackOnly => 0.25,
        };
        self.config.refill_per_s * scale
    }

    /// Mode-scaled energy budget in joules.
    fn energy_budget(&self, mode: SystemMode) -> f64 {
        match mode {
            SystemMode::Normal | SystemMode::Degraded => self.config.energy_budget_j,
            SystemMode::EnergySaver | SystemMode::FallbackOnly => self.config.energy_budget_j * 0.5,
        }
    }

    /// Decides one request from `tenant` at `now_ms` under `mode`,
    /// consuming a token on admission.
    ///
    /// # Errors
    ///
    /// The typed shed reason when the request must be refused.
    pub fn admit(
        &mut self,
        tenant: &str,
        now_ms: u64,
        mode: SystemMode,
    ) -> Result<(), AdmissionShed> {
        let rate = self.refill_rate(mode);
        let budget = self.energy_budget(mode);
        let burst = self.config.burst;
        if !self.tenants.contains_key(tenant) {
            if !self.make_room(now_ms, rate) {
                return Err(AdmissionShed::TenantTableFull);
            }
            self.tenants.insert(
                tenant.to_string(),
                Tenant {
                    tokens: burst,
                    last_refill_ms: now_ms,
                    energy_spent_j: 0.0,
                },
            );
        }
        let t = self.tenants.get_mut(tenant).expect("present or inserted");
        t.tokens = t.tokens_at(now_ms, rate, burst);
        t.last_refill_ms = t.last_refill_ms.max(now_ms);
        if t.energy_spent_j >= budget {
            return Err(AdmissionShed::EnergyBudget);
        }
        if t.tokens < 1.0 {
            return Err(AdmissionShed::RateLimited);
        }
        t.tokens -= 1.0;
        Ok(())
    }

    /// Whether the table has room for one more tenant at `now_ms`, under
    /// refill `rate`. At capacity it drops, in one pass, every tenant with
    /// a full bucket and no recorded spend: a fresh entry would start the
    /// same way, so no decision changes. The pass runs at most once per
    /// time an empty bucket takes to refill, so its cost is amortized
    /// over the requests in between, and a full table of tenants that
    /// cannot be dropped costs one map lookup per new name.
    fn make_room(&mut self, now_ms: u64, rate: f64) -> bool {
        if self.tenants.len() < self.max_tenants {
            return true;
        }
        if now_ms < self.next_sweep_ms {
            return false;
        }
        let burst = self.config.burst;
        self.tenants
            .retain(|_, t| t.energy_spent_j > 0.0 || t.tokens_at(now_ms, rate, burst) < burst);
        // Any tenant untouched from now until an empty bucket has had
        // time to refill will be droppable then, unless it records spend.
        let refill_ms = burst / rate * 1000.0;
        self.next_sweep_ms = if refill_ms.is_finite() {
            now_ms.saturating_add(refill_ms.ceil() as u64)
        } else {
            u64::MAX
        };
        self.tenants.len() < self.max_tenants
    }

    /// Charges a completed job's simulated energy to its tenant. A tenant
    /// dropped from the table while its job ran (its bucket refilled and
    /// it had no spend yet) comes back with a full bucket, as it left,
    /// and the spend.
    pub fn record_energy(&mut self, tenant: &str, joules: f64) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.energy_spent_j += joules;
        } else if joules > 0.0 {
            self.tenants.insert(
                tenant.to_string(),
                Tenant {
                    tokens: self.config.burst,
                    last_refill_ms: 0,
                    energy_spent_j: joules,
                },
            );
        }
    }

    /// Total simulated joules charged to `tenant` so far.
    #[must_use]
    pub fn energy_spent(&self, tenant: &str) -> f64 {
        self.tenants.get(tenant).map_or(0.0, |t| t.energy_spent_j)
    }

    /// Tenants in the table.
    #[must_use]
    pub fn tenant_count(&self) -> u64 {
        self.tenants.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Admission {
        /// A controller whose table holds at most `max_tenants` tenants.
        pub(crate) fn with_tenant_cap(config: AdmissionConfig, max_tenants: usize) -> Self {
            Admission {
                max_tenants,
                ..Admission::new(config)
            }
        }

        /// Every field that decides a request: each tenant's tokens,
        /// last refill and spend (unordered), and the next sweep.
        pub(crate) fn state_key(&self) -> (Vec<(&str, [u64; 3])>, u64) {
            let tenants = (self.tenants.iter())
                .map(|(name, t)| {
                    let (tokens, spent) = (t.tokens.to_bits(), t.energy_spent_j.to_bits());
                    (name.as_str(), [tokens, t.last_refill_ms, spent])
                })
                .collect();
            (tenants, self.next_sweep_ms)
        }
    }

    fn controller(burst: f64, refill: f64, budget: f64) -> Admission {
        Admission::new(AdmissionConfig {
            burst,
            refill_per_s: refill,
            energy_budget_j: budget,
        })
    }

    #[test]
    fn burst_then_rate_limit_then_refill() {
        let mut a = controller(4.0, 10.0, f64::INFINITY);
        // The burst admits exactly `burst` requests at one instant.
        for i in 0..4 {
            assert!(a.admit("t", 0, SystemMode::Normal).is_ok(), "req {i}");
        }
        assert_eq!(
            a.admit("t", 0, SystemMode::Normal),
            Err(AdmissionShed::RateLimited)
        );
        // 100 virtual ms at 10 tokens/s = 1 token.
        assert!(a.admit("t", 100, SystemMode::Normal).is_ok());
        assert_eq!(
            a.admit("t", 100, SystemMode::Normal),
            Err(AdmissionShed::RateLimited)
        );
    }

    #[test]
    fn tenants_are_isolated() {
        let mut a = controller(1.0, 1.0, f64::INFINITY);
        assert!(a.admit("alice", 0, SystemMode::Normal).is_ok());
        assert_eq!(
            a.admit("alice", 0, SystemMode::Normal),
            Err(AdmissionShed::RateLimited)
        );
        // A noisy neighbor does not spend bob's tokens.
        assert!(a.admit("bob", 0, SystemMode::Normal).is_ok());
        assert_eq!(a.tenant_count(), 2);
    }

    #[test]
    fn degraded_modes_slow_the_refill() {
        let mut normal = controller(1.0, 10.0, f64::INFINITY);
        let mut saver = controller(1.0, 10.0, f64::INFINITY);
        assert!(normal.admit("t", 0, SystemMode::Normal).is_ok());
        assert!(saver.admit("t", 0, SystemMode::EnergySaver).is_ok());
        // 100 ms refills one token at full rate, only a quarter token
        // under energy_saver.
        assert!(normal.admit("t", 100, SystemMode::Normal).is_ok());
        assert_eq!(
            saver.admit("t", 100, SystemMode::EnergySaver),
            Err(AdmissionShed::RateLimited)
        );
        assert!(saver.admit("t", 400, SystemMode::EnergySaver).is_ok());
    }

    #[test]
    fn energy_budget_sheds_and_halves_under_energy_saver() {
        let mut a = controller(10.0, 0.0, 100.0);
        assert!(a.admit("t", 0, SystemMode::Normal).is_ok());
        a.record_energy("t", 60.0);
        // 60 J spent: fine normally, over the halved saver budget.
        assert!(a.admit("t", 1, SystemMode::Normal).is_ok());
        assert_eq!(
            a.admit("t", 2, SystemMode::EnergySaver),
            Err(AdmissionShed::EnergyBudget)
        );
        a.record_energy("t", 50.0);
        assert_eq!(
            a.admit("t", 3, SystemMode::Normal),
            Err(AdmissionShed::EnergyBudget)
        );
        assert_eq!(a.energy_spent("t"), 110.0);
    }

    #[test]
    fn rotating_tenant_names_keeps_the_table_bounded() {
        let mut a = controller(16.0, 50.0, f64::INFINITY);
        for i in 0..100_000u64 {
            let _ = a.admit(&format!("t{i}"), i, SystemMode::Normal);
            assert!(a.tenant_count() <= MAX_TENANTS as u64, "request {i}");
        }
    }

    #[test]
    fn a_tenant_with_spend_outlives_the_churn() {
        let mut a = controller(16.0, 50.0, 100.0);
        assert!(a.admit("spender", 0, SystemMode::Normal).is_ok());
        a.record_energy("spender", 150.0);
        for i in 0..100_000u64 {
            let _ = a.admit(&format!("t{i}"), 1 + i, SystemMode::Normal);
        }
        assert_eq!(
            a.admit("spender", 200_000, SystemMode::Normal),
            Err(AdmissionShed::EnergyBudget)
        );
        assert_eq!(a.energy_spent("spender"), 150.0);
    }

    #[test]
    fn a_full_table_sheds_new_names_until_buckets_refill() {
        let mut a = controller(16.0, 50.0, f64::INFINITY);
        for i in 0..MAX_TENANTS {
            assert!(a.admit(&format!("t{i}"), 0, SystemMode::Normal).is_ok());
        }
        // Every entry spent a token at 0, so none is droppable yet.
        assert_eq!(
            a.admit("late", 0, SystemMode::Normal),
            Err(AdmissionShed::TenantTableFull)
        );
        assert_eq!(a.tenant_count(), MAX_TENANTS as u64);
        assert!(a.admit("t0", 0, SystemMode::Normal).is_ok());
        // A second past it every bucket is full again: the pass drops
        // them all and the new name gets a fresh entry.
        assert!(a.admit("late", 1_000, SystemMode::Normal).is_ok());
        assert_eq!(a.tenant_count(), 1);
    }

    #[test]
    fn spend_recorded_after_a_drop_is_kept() {
        let mut a = controller(16.0, 50.0, 100.0);
        for i in 0..MAX_TENANTS {
            assert!(a.admit(&format!("t{i}"), 0, SystemMode::Normal).is_ok());
        }
        // "t0" is dropped with the rest while its job still runs.
        assert!(a.admit("late", 1_000, SystemMode::Normal).is_ok());
        a.record_energy("t0", 150.0);
        assert_eq!(
            a.admit("t0", 1_001, SystemMode::Normal),
            Err(AdmissionShed::EnergyBudget)
        );
    }

    #[test]
    fn clock_regressions_are_harmless() {
        let mut a = controller(2.0, 10.0, f64::INFINITY);
        assert!(a.admit("t", 1000, SystemMode::Normal).is_ok());
        // A request stamped earlier than the last must not mint tokens
        // or panic.
        assert!(a.admit("t", 500, SystemMode::Normal).is_ok());
        assert_eq!(
            a.admit("t", 500, SystemMode::Normal),
            Err(AdmissionShed::RateLimited)
        );
    }
}
