//! The retention governor: the one thermal → rung → divider loop.
//!
//! RANA's refresh-optimized controller derives its refresh pulse from a
//! programmable clock divider whose period is the tolerable retention
//! time (paper §IV-D). Retention roughly halves per +10 °C of junction
//! temperature, so every runtime in the workspace — the thermal-adaptive
//! runtime ([`crate::adaptive`]), the serving loop (`rana-serve`) and the
//! fleet simulator (`rana-fleet`) — retunes that divider from the sensed
//! die temperature, and [`precompile`](crate::store::precompile) compiles
//! ahead of time for exactly the intervals those loops will pick. This
//! module owns every decision they share:
//!
//! * the policy constants: [`RETENTION_MARGIN`], [`SENSOR_QUANTUM_C`],
//!   [`LADDER_STEPS_PER_OCTAVE`], [`THROTTLE_TEMP_C`] and
//!   [`RESCHEDULE_REFRESH_WEIGHT`];
//! * [`RetentionGovernor`]: the throttle cooldown, the sense → derate →
//!   ladder rung → divider step ([`RetentionGovernor::rung`]), the rung
//!   set precompilation enumerates ([`RetentionGovernor::rungs`], built
//!   from the same expression, so warm starts hit bit for bit), and the
//!   hedged pricing of online reschedules;
//! * [`ProfileCache`]: one tenant inference's execution profile under the
//!   keep-base-iff-refresh-free decision rule, and the weight-resident
//!   batch cost ([`TenantProfile::batch`]).
//!
//! # Example
//!
//! ```
//! use rana_core::designs::Design;
//! use rana_core::evaluate::Evaluator;
//! use rana_core::governor::RetentionGovernor;
//!
//! let eval = Evaluator::paper_platform();
//! let gov = RetentionGovernor::for_design(&eval, Design::RanaStarE5);
//! let cold = gov.rung(45.0);
//! let hot = gov.rung(70.0);
//! assert!(hot.interval_us < cold.interval_us, "heat tightens the refresh interval");
//! assert!(gov.rungs(5).contains(&hot.interval_us), "precompiled rungs cover the loop");
//! ```

use crate::designs::Design;
use crate::energy::EnergyBreakdown;
use crate::evaluate::Evaluator;
use crate::scheduler::{LayerSchedule, Scheduler};
use rana_accel::{RefreshModel, SchedLayer};
use rana_edram::thermal::ThermalModel;
use rana_edram::ClockDivider;
use rana_policy::{LayerCtx, RefreshStrategy, Strategy};
use rana_zoo::Network;
use std::collections::HashMap;

/// Safety margin applied to the tolerable retention time before ladder
/// quantization; covers sensor quantization and the heating that happens
/// *within* a layer or batch, after its boundary sample.
pub const RETENTION_MARGIN: f64 = 0.85;

/// Temperature sensor resolution, °C. Samples are quantized *up* (the
/// pessimistic side for retention).
pub const SENSOR_QUANTUM_C: f64 = 0.25;

/// Interval-ladder resolution: rung `k` is `nominal · 2^(−k/steps)`. The
/// ladder caps the number of distinct divider settings (and therefore
/// online-reschedule cache entries) at this many per octave of derating.
pub const LADDER_STEPS_PER_OCTAVE: u32 = 4;

/// Thermal throttle cap, °C: above it, a runtime idles until the die
/// cools back to the cap before launching more work (DVFS-style thermal
/// protection). Bounds the refresh → heat → tighter-interval feedback
/// loop: entry temperature, and with it the chosen rung and refresh
/// power, can never spiral.
pub const THROTTLE_TEMP_C: f64 = 85.0;

/// Refresh-energy weight applied by online reschedule searches. Under a
/// heating transient the refresh bill of a candidate grows as the
/// interval keeps tightening (pulses ∝ 1/interval) while its MAC, buffer
/// and off-chip terms stay fixed, so the search hedges by pricing refresh
/// at this multiple of its Table III cost; `4.0` prices two further
/// octaves of derating, which also keeps the configuration choice stable
/// across neighbouring rungs. Accounting and reports always use the
/// unweighted model.
pub const RESCHEDULE_REFRESH_WEIGHT: f64 = 4.0;

/// Longest scheduled data lifetime of a layer schedule, µs: the quantity a
/// refresh-free execution must keep below the operating interval.
pub fn crit_us(l: &LayerSchedule) -> f64 {
    l.sim.lifetimes.critical_intervals().into_iter().fold(0.0, f64::max)
}

/// Retention scale factor for a temperature delta: `2^(−ΔT/10)`.
fn scale_for_delta(delta_c: f64) -> f64 {
    (-delta_c / 10.0).exp2()
}

/// Ladder rung `k`: `nominal · 2^(−k/steps)`.
fn ladder_us(nominal_us: f64, k: f64) -> f64 {
    nominal_us * (-k / f64::from(LADDER_STEPS_PER_OCTAVE)).exp2()
}

/// Largest ladder rung (integer `k ≥ 0`) that does not exceed `safe_us`.
fn ladder_rung_us(nominal_us: f64, safe_us: f64) -> f64 {
    if safe_us >= nominal_us {
        return nominal_us;
    }
    assert!(safe_us > 0.0, "safe interval must be positive, got {safe_us}");
    let steps = f64::from(LADDER_STEPS_PER_OCTAVE);
    let mut k = (steps * (nominal_us / safe_us).log2()).ceil();
    let mut rung = ladder_us(nominal_us, k);
    // ceil() can land exactly on safe_us's rung and float rounding can
    // leave it a hair above; step down once more if so.
    while rung > safe_us {
        k += 1.0;
        rung = ladder_us(nominal_us, k);
    }
    rung
}

/// The governor's decision at one temperature sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Quantized sensor reading the decision acted on, °C.
    pub sensed_c: f64,
    /// Tolerable retention at the sensed temperature (before the margin),
    /// µs.
    pub tolerable_us: f64,
    /// Divider setting of the chosen ladder rung.
    pub divider: ClockDivider,
    /// Operating refresh interval (the divider's pulse period), µs.
    pub interval_us: f64,
}

/// The thermal → rung → divider loop for one design point.
#[derive(Debug, Clone)]
pub struct RetentionGovernor {
    template: Scheduler,
    base_tolerable_us: f64,
    thermal: ThermalModel,
}

impl RetentionGovernor {
    /// A governor for the scheduler `template` (its refresh interval is
    /// the ladder's top rung, its clock drives the divider), tolerating
    /// `base_tolerable_us` of retention at the characterization
    /// temperature of `thermal`.
    ///
    /// # Panics
    ///
    /// Panics if `base_tolerable_us` is not positive or the ambient of
    /// `thermal` is not below [`THROTTLE_TEMP_C`].
    pub fn new(template: Scheduler, base_tolerable_us: f64, thermal: ThermalModel) -> Self {
        assert!(base_tolerable_us > 0.0, "tolerable retention must be positive");
        assert!(
            THROTTLE_TEMP_C > thermal.ambient_c,
            "throttle cap {THROTTLE_TEMP_C} degC must be above ambient {} degC",
            thermal.ambient_c
        );
        Self { template, base_tolerable_us, thermal }
    }

    /// The governor of `design` on `eval`'s platform: the design's
    /// scheduler and Stage-1 failure rate on the embedded 65 nm thermal
    /// plant.
    pub fn for_design(eval: &Evaluator, design: Design) -> Self {
        Self::new(
            eval.scheduler_for(design),
            eval.retention().tolerable_retention_us(design.failure_rate()),
            ThermalModel::embedded_65nm(),
        )
    }

    /// The scheduler template the governor was built from (unhedged).
    pub fn template(&self) -> &Scheduler {
        &self.template
    }

    /// The thermal plant.
    pub fn thermal(&self) -> ThermalModel {
        self.thermal
    }

    fn divider_for(&self, interval_us: f64) -> ClockDivider {
        ClockDivider::for_interval(self.template.cfg.frequency_hz, interval_us)
    }

    fn period_us(&self, divider: ClockDivider) -> f64 {
        divider.pulse_period_us(self.template.cfg.frequency_hz)
    }

    /// Divider setting at the nominal (characterization-temperature)
    /// interval.
    pub fn nominal_divider(&self) -> ClockDivider {
        self.divider_for(self.template.refresh.interval_us)
    }

    /// Divider-quantized nominal interval, µs.
    pub fn nominal_interval_us(&self) -> f64 {
        self.period_us(self.nominal_divider())
    }

    /// Thermal throttle: the idle time that cools a die at `temp_c` back
    /// to [`THROTTLE_TEMP_C`], or `None` at or below the cap. The exact
    /// RC solution gives it in closed form:
    /// `T(dt) = amb + (T0 − amb)·e^(−dt/τ) = cap` ⇒
    /// `dt = τ·ln((T0 − amb) / (cap − amb))`.
    pub fn throttle_us(&self, temp_c: f64) -> Option<f64> {
        let amb = self.thermal.ambient_c;
        (temp_c > THROTTLE_TEMP_C)
            .then(|| self.thermal.tau_us * ((temp_c - amb) / (THROTTLE_TEMP_C - amb)).ln())
    }

    /// Sense → tolerable retention → ladder rung → divider: the operating
    /// point for a die at `temp_c`.
    pub fn rung(&self, temp_c: f64) -> Rung {
        let sensed_c = (temp_c / SENSOR_QUANTUM_C).ceil() * SENSOR_QUANTUM_C;
        let tolerable_us = self.base_tolerable_us * scale_for_delta(self.thermal.delta_c(sensed_c));
        let rung_us =
            ladder_rung_us(self.template.refresh.interval_us, tolerable_us * RETENTION_MARGIN);
        let divider = self.divider_for(rung_us);
        Rung { sensed_c, tolerable_us, divider, interval_us: self.period_us(divider) }
    }

    /// Every divider-quantized ladder interval down to `octaves` octaves
    /// below nominal, nominal first: the set [`Self::rung`] draws from at
    /// any temperature whose tolerable retention stays within that range.
    pub fn rungs(&self, octaves: u32) -> Vec<f64> {
        (0..=octaves * LADDER_STEPS_PER_OCTAVE)
            .map(|k| {
                let rung_us = ladder_us(self.template.refresh.interval_us, f64::from(k));
                self.period_us(self.divider_for(rung_us))
            })
            .collect()
    }

    /// `s` re-targeted at `interval_us` with refresh priced at
    /// [`RESCHEDULE_REFRESH_WEIGHT`]× — the scheduler online reschedules
    /// (and their precompiled entries) search with.
    pub fn hedged(&self, s: &Scheduler, interval_us: f64) -> Scheduler {
        let mut hedged = s.clone();
        hedged.refresh = RefreshModel { interval_us, kind: s.refresh.kind };
        hedged.model.costs.edram_refresh_pj *= RESCHEDULE_REFRESH_WEIGHT;
        hedged
    }
}

/// One tenant inference's execution profile at one bank share and
/// operating interval: keep each base-schedule layer iff it stays
/// refresh-free, otherwise take a hedged online reschedule, then price
/// refresh with the tenant's strategy and Eq. 14 at the operating
/// interval.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// One inference's execution time, µs.
    pub time_us: f64,
    /// One inference's Eq. 14 energy at the operating interval.
    pub energy: EnergyBreakdown,
    /// Words refreshed over one inference.
    pub refresh_words: u64,
    /// Off-chip energy of one inference's weight loads, J: paid once per
    /// batch, not per request, when weights stay resident.
    pub reload_j: f64,
    /// Layers that abandoned the base schedule for an online reschedule.
    pub rescheduled_layers: u64,
    /// Most banks the refresh controller flags in any layer.
    pub flagged_banks: usize,
}

impl TenantProfile {
    /// Eq. 14 energy and execution time, µs, of `b` requests run back to
    /// back with weights resident: requests 2..b skip the weight DRAM
    /// loads (off-chip energy never drops below zero).
    pub fn batch(&self, b: usize) -> (EnergyBreakdown, f64) {
        let n = b as f64;
        let energy = EnergyBreakdown {
            computing_j: self.energy.computing_j * n,
            buffer_j: self.energy.buffer_j * n,
            refresh_j: self.energy.refresh_j * n,
            offchip_j: (self.energy.offchip_j * n - (n - 1.0) * self.reload_j).max(0.0),
        };
        (energy, self.time_us * n)
    }
}

/// Memoizes [`TenantProfile`]s by `(tenant, banks, operating interval,
/// refresh strategy)`.
///
/// The interval key is the exact bit pattern of the divider-quantized
/// rung, so two batches (or dies) sensing the same quantized temperature
/// hit the same entry. The per-layer searches inside flow through the
/// evaluator's shared [`ScheduleCache`](crate::par::ScheduleCache).
#[derive(Debug)]
pub struct ProfileCache<'a> {
    eval: &'a Evaluator,
    governor: RetentionGovernor,
    trace_prefix: &'static str,
    cache: HashMap<(usize, usize, u64, (u8, u64)), TenantProfile>,
}

impl<'a> ProfileCache<'a> {
    /// A cache over `eval`'s platform for `governor`'s design point.
    /// Non-default strategies trace their decisions under the scope
    /// `{trace_prefix}tenant{t}/{layer}`.
    pub fn new(
        eval: &'a Evaluator,
        governor: RetentionGovernor,
        trace_prefix: &'static str,
    ) -> Self {
        Self { eval, governor, trace_prefix, cache: HashMap::new() }
    }

    /// The governor the profiles are built for.
    pub fn governor(&self) -> &RetentionGovernor {
        &self.governor
    }

    /// Distinct profiles computed so far.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether no profile has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The refresh strategy used when none is pinned: the byte-compatible
    /// legacy path of the design's controller kind.
    fn default_strategy(&self) -> Strategy {
        Strategy::for_kind(self.governor.template.refresh.kind)
    }

    /// The profile of one `tenant` inference of `network` on `banks`
    /// buffer banks at `interval_us` under `strategy` (`None` follows the
    /// design's controller kind), plus the number of *fresh* Stage-2
    /// layer searches building it cost — 0 on a memo hit, and 0 when every
    /// layer search hit the evaluator's schedule cache (e.g. after a warm
    /// start from a persistent
    /// [`ScheduleStore`](crate::store::ScheduleStore)).
    pub fn profile(
        &mut self,
        tenant: usize,
        network: &Network,
        banks: usize,
        interval_us: f64,
        strategy: Option<Strategy>,
    ) -> (TenantProfile, u64) {
        let default_strategy = self.default_strategy();
        let strategy = strategy.unwrap_or(default_strategy);
        let key = (tenant, banks, interval_us.to_bits(), strategy.memo_key());
        if let Some(p) = self.cache.get(&key) {
            return (p.clone(), 0);
        }
        let cache = self.eval.cache();
        let misses_before = cache.misses();
        let mut nominal = self.governor.template.clone();
        nominal.cfg.buffer.num_banks = banks;
        let base = nominal.schedule_network_with(network, Some(cache), 1);
        let hedged = self.governor.hedged(&nominal, interval_us);

        let mut p = TenantProfile {
            time_us: 0.0,
            energy: EnergyBreakdown::default(),
            refresh_words: 0,
            reload_j: 0.0,
            rescheduled_layers: 0,
            flagged_banks: 0,
        };
        let mut reload_words = 0u64;
        let layers = network.conv_layers().map(SchedLayer::from_conv);
        for (layer, base_layer) in layers.zip(&base.layers) {
            let chosen = if crit_us(base_layer) < interval_us {
                base_layer.clone()
            } else {
                p.rescheduled_layers += 1;
                hedged.schedule_layer_memo(&layer, cache)
            };
            let ctx = LayerCtx {
                sim: &chosen.sim,
                cfg: &nominal.cfg,
                interval_us,
                retention: self.eval.retention(),
            };
            let decision = if strategy == default_strategy {
                strategy.decide(&ctx)
            } else {
                // Non-default strategies are new decision points: trace them.
                let scope = format!("{}tenant{tenant}/{}", self.trace_prefix, chosen.sim.layer);
                rana_policy::decide_traced(&strategy, &ctx, &scope)
            };
            let words = decision.refresh_words;
            p.flagged_banks = p.flagged_banks.max(decision.flagged_banks());
            p.time_us += chosen.sim.time_us;
            p.energy += nominal.model.layer_energy(&chosen.sim, words, &nominal.cfg);
            p.refresh_words += words;
            reload_words += chosen.sim.traffic.dram_weight_loads;
        }
        p.reload_j = reload_words as f64 * nominal.model.costs.ddr_access_pj * 1e-12;
        self.cache.insert(key, p.clone());
        (p, cache.misses() - misses_before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor() -> (Evaluator, RetentionGovernor) {
        let eval = Evaluator::paper_platform();
        let gov = RetentionGovernor::for_design(&eval, Design::RanaStarE5);
        (eval, gov)
    }

    #[test]
    fn ladder_rungs_are_quantized() {
        let (_, gov) = governor();
        let nominal = gov.template().refresh.interval_us;
        let steps = f64::from(LADDER_STEPS_PER_OCTAVE);
        for safe in [700.0, 500.0, 300.0, 120.0, 50.0] {
            let rung = ladder_rung_us(nominal, safe);
            assert!(rung <= safe);
            let k = steps * (nominal / rung).log2();
            assert!((k - k.round()).abs() < 1e-6, "rung {rung} is not on the ladder");
            // And the next rung up would overshoot.
            let up = nominal * (-(k.round() - 1.0) / steps).exp2();
            assert!(up > safe);
        }
    }

    /// The precompile ↔ online contract: every interval the loop can pick
    /// between ambient and the throttle cap is, bit for bit, one of the
    /// rungs a five-octave precompile covers.
    #[test]
    fn every_throttled_rung_is_precompiled() {
        let (_, gov) = governor();
        let grid: Vec<u64> = gov.rungs(5).iter().map(|r| r.to_bits()).collect();
        assert_eq!(grid.len(), 5 * LADDER_STEPS_PER_OCTAVE as usize + 1);
        assert_eq!(grid[0], gov.nominal_interval_us().to_bits());
        let mut t = gov.thermal().ambient_c;
        while t <= THROTTLE_TEMP_C {
            let rung = gov.rung(t);
            assert_eq!(rung.sensed_c, t, "{t} degC is already sensor-quantized");
            assert!(grid.contains(&rung.interval_us.to_bits()), "{t} degC: rung off the grid");
            t += SENSOR_QUANTUM_C;
        }
    }

    #[test]
    fn throttle_cools_exactly_to_the_cap() {
        let (_, gov) = governor();
        assert_eq!(gov.throttle_us(THROTTLE_TEMP_C), None);
        let dt = gov.throttle_us(95.0).expect("above the cap");
        let cooled = gov.thermal().step(95.0, 0.0, dt);
        assert!((cooled - THROTTLE_TEMP_C).abs() < 1e-9, "cooled to {cooled}");
    }

    #[test]
    fn profiles_are_memoized_and_interval_sensitive() {
        let (eval, gov) = governor();
        let nominal = gov.template().refresh.interval_us;
        let banks = gov.template().cfg.buffer.num_banks;
        let mut cache = ProfileCache::new(&eval, gov, "");
        let net = rana_zoo::alexnet();
        let (a, _) = cache.profile(0, &net, banks, nominal, None);
        let (b, _) = cache.profile(0, &net, banks, nominal, None);
        assert_eq!(cache.len(), 1, "same (tenant, banks, rung) must hit the memo");
        assert_eq!(a.time_us, b.time_us);
        assert!(a.time_us > 0.0 && a.energy.total_j() > 0.0);
        // A much tighter interval forces reschedules and more refresh.
        let (tight, _) = cache.profile(0, &net, banks, nominal / 16.0, None);
        assert_eq!(cache.len(), 2);
        assert!(tight.refresh_words >= a.refresh_words);
    }

    #[test]
    fn fresh_search_counts_vanish_once_the_schedule_cache_is_warm() {
        let (eval, gov) = governor();
        let nominal = gov.template().refresh.interval_us;
        let banks = gov.template().cfg.buffer.num_banks;
        let mut cache = ProfileCache::new(&eval, gov, "");
        let net = rana_zoo::alexnet();
        let (_, fresh0) = cache.profile(0, &net, banks, nominal / 16.0, None);
        assert!(fresh0 > 0, "a cold evaluator must run fresh searches");
        // Another tenant of the same network at the same rung: new
        // profile key, but every layer search hits the schedule cache.
        let (_, fresh1) = cache.profile(1, &net, banks, nominal / 16.0, None);
        assert_eq!(fresh1, 0);
        // A profile-memo hit costs nothing by definition.
        let (_, fresh2) = cache.profile(0, &net, banks, nominal / 16.0, None);
        assert_eq!(fresh2, 0);
    }

    #[test]
    fn strategies_key_the_memo_and_none_matches_the_default() {
        let (eval, gov) = governor();
        let nominal = gov.template().refresh.interval_us;
        let banks = gov.template().cfg.buffer.num_banks;
        let mut cache = ProfileCache::new(&eval, gov, "");
        let net = rana_zoo::alexnet();
        let (implicit, _) = cache.profile(0, &net, banks, nominal, None);
        let default = Some(cache.default_strategy());
        let (explicit, _) = cache.profile(0, &net, banks, nominal, default);
        assert_eq!(cache.len(), 1, "None and the explicit default share a key");
        assert_eq!(implicit.refresh_words, explicit.refresh_words);
        let (conv, _) = cache.profile(0, &net, banks, nominal, Some(Strategy::Conventional));
        assert_eq!(cache.len(), 2, "a pinned strategy gets its own entry");
        assert!(conv.refresh_words >= implicit.refresh_words);
    }

    #[test]
    fn bank_count_keys_the_memo() {
        let (eval, gov) = governor();
        let nominal = gov.template().refresh.interval_us;
        let full = gov.template().cfg.buffer.num_banks;
        let mut cache = ProfileCache::new(&eval, gov, "");
        let net = rana_zoo::alexnet();
        let (whole, _) = cache.profile(0, &net, full, nominal, None);
        let (half, fresh) = cache.profile(0, &net, full / 2, nominal, None);
        assert_eq!(cache.len(), 2, "a different partition is a different profile");
        assert!(fresh > 0, "a new partition size is a new scheduling context");
        assert!(whole.time_us > 0.0 && half.time_us > 0.0);
        let (again, fresh) = cache.profile(0, &net, full / 2, nominal, None);
        assert_eq!((cache.len(), fresh), (2, 0));
        assert_eq!(again.energy, half.energy);
    }

    #[test]
    fn batch_cost_amortizes_weight_reloads() {
        let (eval, gov) = governor();
        let nominal = gov.template().refresh.interval_us;
        let banks = gov.template().cfg.buffer.num_banks;
        let mut cache = ProfileCache::new(&eval, gov, "");
        let (p, _) = cache.profile(0, &rana_zoo::alexnet(), banks, nominal, None);
        assert!(p.reload_j > 0.0, "AlexNet loads weights from DRAM");
        let (one, t1) = p.batch(1);
        assert_eq!(one, p.energy, "a batch of one is one inference");
        assert_eq!(t1, p.time_us);
        let (four, t4) = p.batch(4);
        assert_eq!(t4, 4.0 * p.time_us);
        assert_eq!(four.refresh_j, 4.0 * p.energy.refresh_j);
        assert!(four.offchip_j < 4.0 * p.energy.offchip_j, "resident weights save off-chip");
        // A reload larger than a request's off-chip bill clamps at zero.
        let heavy = TenantProfile { reload_j: 2.0 * p.energy.offchip_j, ..p.clone() };
        assert_eq!(heavy.batch(3).0.offchip_j, 0.0);
    }
}
