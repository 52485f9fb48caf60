//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] schedules faults in *simulated* time: per-link packet
//! loss probability, CRC corruption probability, transient link outage
//! windows, bandwidth degradation windows, and NIC stall intervals. All
//! probabilistic draws are a stateless hash of
//! `(plan seed, directed channel index, per-channel packet counter)`, so
//! a given plan produces bit-identical faults regardless of thread
//! count, tracing, caching, or the order unrelated simulations run in.
//!
//! Plans come from `ELANIB_FAULTS=<spec>` (see [`FaultPlan::parse`] for
//! the grammar) or are passed explicitly to
//! [`crate::Fabric::with_faults`]. A plan that injects nothing —
//! zero rates and no scheduled windows — is treated exactly like no
//! plan at all, so the fault layer is provably zero-effect when off.

use std::cell::Cell;
use std::sync::{Arc, LazyLock};

use elanib_simcore::trace::json;
use elanib_simcore::{Dur, SimTime};

/// A scheduled link outage: the undirected edge `link` carries nothing
/// during `[start, start + dur)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outage {
    pub link: usize,
    pub start: Dur,
    pub dur: Dur,
}

/// A scheduled bandwidth degradation: edge `link` serializes slower by
/// `factor` (0 < factor <= 1) during `[start, start + dur)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Degrade {
    pub link: usize,
    pub start: Dur,
    pub dur: Dur,
    pub factor: f64,
}

/// A scheduled NIC stall: endpoint `ep` neither sends nor receives
/// during `[start, start + dur)` (models a hiccupping host / firmware).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NicStall {
    pub ep: usize,
    pub start: Dur,
    pub dur: Dur,
}

/// A complete, deterministic fault schedule for one fabric.
///
/// `Debug` output is part of the cache-key contract: two plans that
/// render identically inject identical faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed folded into every probabilistic draw.
    pub seed: u64,
    /// Per-packet loss probability on every directed link.
    pub loss: f64,
    /// Per-packet CRC-corruption probability (detected at the
    /// receiver; same recovery path as a loss, but counted apart).
    pub corrupt: f64,
    pub outages: Vec<Outage>,
    pub degrades: Vec<Degrade>,
    pub stalls: Vec<NicStall>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            loss: 0.0,
            corrupt: 0.0,
            outages: Vec::new(),
            degrades: Vec::new(),
            stalls: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// True when the plan injects nothing at all — such a plan is
    /// equivalent to running without one.
    pub fn is_effectless(&self) -> bool {
        self.loss <= 0.0
            && self.corrupt <= 0.0
            && self.outages.is_empty()
            && self.degrades.is_empty()
            && self.stalls.is_empty()
    }

    /// Drop scheduled windows that provably cannot affect a run that
    /// ends by `horizon`: anything starting at or past the horizon,
    /// plus zero-length windows (`[start, start)` is empty under the
    /// end-exclusive window rule). The rates are untouched — a loss
    /// process has no schedule to prune. A plan whose every window is
    /// filtered and whose rates are zero becomes [`is_effectless`]
    /// (and the fabric then drops it entirely), which is what makes
    /// "this plan was a no-op" a provable statement rather than an
    /// empirical one.
    ///
    /// [`is_effectless`]: FaultPlan::is_effectless
    pub fn truncated_to(&self, horizon: Dur) -> FaultPlan {
        let live = |start: Dur, dur: Dur| start < horizon && dur > Dur::ZERO;
        let mut p = self.clone();
        p.outages.retain(|o| live(o.start, o.dur));
        p.degrades.retain(|d| live(d.start, d.dur));
        p.stalls.retain(|s| live(s.start, s.dur));
        p
    }

    /// Deterministically sample a fault plan from `seed` for a fabric
    /// with `links` undirected edges and `eps` endpoints, scheduling
    /// all windows inside `[0, horizon)`. This is the fuzzer's
    /// generator hook: the draw chain is the fault layer's own
    /// stateless SplitMix64, so a sampled plan is a pure function of
    /// its arguments — same seed, same plan, forever. Roughly half of
    /// all seeds yield a quiet plan (no loss), mirroring how often
    /// real scenarios run clean.
    pub fn sample(seed: u64, links: usize, eps: usize, horizon: Dur) -> FaultPlan {
        let d = |k: u64, n: u64| unit_draw(seed, k, n);
        let span = horizon.as_ps().max(1);
        let window = |k: u64, n: u64| -> (Dur, Dur) {
            let start = Dur::from_ps((d(k, n) * span as f64) as u64);
            // Durations up to a quarter horizon, never zero.
            let dur = Dur::from_ps((d(k, n + 1) * (span / 4) as f64) as u64 + 1);
            (start, dur)
        };
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        if d(1, 0) < 0.5 {
            plan.loss = [1e-3, 1e-2, 3e-2][(d(1, 1) * 3.0) as usize % 3];
        }
        if d(2, 0) < 0.3 {
            plan.corrupt = [1e-3, 1e-2][(d(2, 1) * 2.0) as usize % 2];
        }
        if links > 0 {
            for i in 0..(d(3, 0) * 3.0) as u64 {
                let (start, dur) = window(3, i * 3 + 2);
                plan.outages.push(Outage {
                    link: (d(3, i * 3 + 1) * links as f64) as usize % links,
                    start,
                    dur,
                });
            }
            for i in 0..(d(4, 0) * 3.0) as u64 {
                let (start, dur) = window(4, i * 4 + 2);
                plan.degrades.push(Degrade {
                    link: (d(4, i * 4 + 1) * links as f64) as usize % links,
                    start,
                    dur,
                    factor: 0.25 + 0.75 * d(4, i * 4 + 4),
                });
            }
        }
        if eps > 0 {
            for i in 0..(d(5, 0) * 2.0) as u64 {
                let (start, dur) = window(5, i * 3 + 2);
                plan.stalls.push(NicStall {
                    ep: (d(5, i * 3 + 1) * eps as f64) as usize % eps,
                    start,
                    dur,
                });
            }
        }
        plan
    }

    /// Strictly simpler variants of this plan, most-aggressive
    /// reduction first — the fuzzer's shrinking hook. Each candidate
    /// removes one kind of injection (or halves a schedule); a shrinker
    /// re-runs the failing scenario after each step and keeps the
    /// reduction only if the failure survives. Returns nothing for an
    /// effectless plan — there is nothing left to remove.
    pub fn shrink_candidates(&self) -> Vec<FaultPlan> {
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut FaultPlan)| {
            let mut p = self.clone();
            f(&mut p);
            out.push(p);
        };
        if !self.outages.is_empty() {
            push(&|p| p.outages.truncate(p.outages.len() / 2));
        }
        if !self.degrades.is_empty() {
            push(&|p| p.degrades.truncate(p.degrades.len() / 2));
        }
        if !self.stalls.is_empty() {
            push(&|p| p.stalls.truncate(p.stalls.len() / 2));
        }
        if self.corrupt > 0.0 {
            push(&|p| p.corrupt = 0.0);
        }
        if self.loss > 0.0 {
            push(&|p| p.loss = 0.0);
        }
        out
    }

    /// Parse a fault spec. Two forms:
    ///
    /// * `@/path/to/plan` — load the file at that path and parse its
    ///   contents (JSON if the first non-space byte is `{`, otherwise
    ///   the directive grammar below; `#` starts a line comment).
    /// * a comma/newline-separated directive list:
    ///
    /// ```text
    /// seed=7                        fold 7 into every draw (default 1)
    /// loss=1e-3                     per-packet loss probability
    /// corrupt=1e-4                  per-packet CRC-corruption probability
    /// outage=link3@500us+200us      edge 3 down during [500us, 700us)
    /// degrade=link2@1ms+2ms*0.5     edge 2 at half rate during [1ms, 3ms)
    /// stall=ep1@300us+50us          endpoint 1 stalled during [300us, 350us)
    /// ```
    ///
    /// Durations are a float plus `ns`/`us`/`ms`/`s`; a bare number
    /// means microseconds.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if let Some(path) = spec.strip_prefix('@') {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fault plan {path}: {e}"))?;
            return Self::parse_text(&text);
        }
        Self::parse_text(spec)
    }

    fn parse_text(text: &str) -> Result<FaultPlan, String> {
        if text.trim_start().starts_with('{') {
            return Self::from_json(text);
        }
        let mut plan = FaultPlan::default();
        for raw in text.split(['\n', ',']) {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("fault directive without '=': {line:?}"))?;
            let (key, val) = (key.trim(), val.trim());
            match key {
                "seed" => {
                    plan.seed = val.parse().map_err(|e| format!("bad seed {val:?}: {e}"))?;
                }
                "loss" => plan.loss = parse_prob("loss", val)?,
                "corrupt" => plan.corrupt = parse_prob("corrupt", val)?,
                "outage" => {
                    let (link, start, dur) = parse_window("link", val)?;
                    plan.outages.push(Outage { link, start, dur });
                }
                "degrade" => {
                    let (head, factor) = val
                        .rsplit_once('*')
                        .ok_or_else(|| format!("degrade without '*factor': {val:?}"))?;
                    let factor: f64 = factor
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad degrade factor {factor:?}: {e}"))?;
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(format!("degrade factor must be in (0, 1], got {factor}"));
                    }
                    let (link, start, dur) = parse_window("link", head)?;
                    plan.degrades.push(Degrade {
                        link,
                        start,
                        dur,
                        factor,
                    });
                }
                "stall" => {
                    let (ep, start, dur) = parse_window("ep", val)?;
                    plan.stalls.push(NicStall { ep, start, dur });
                }
                _ => return Err(format!("unknown fault directive {key:?}")),
            }
        }
        Ok(plan)
    }

    /// Parse the JSON form:
    ///
    /// ```text
    /// {"seed": 7, "loss": 1e-3, "corrupt": 0,
    ///  "outages":  [{"link": 3, "start_us": 500, "dur_us": 200}],
    ///  "degrades": [{"link": 2, "start_us": 1000, "dur_us": 2000, "factor": 0.5}],
    ///  "stalls":   [{"ep": 1, "start_us": 300, "dur_us": 50}]}
    /// ```
    ///
    /// The text goes through the workspace's one JSON reader,
    /// [`json::parse`], which is strict: trailing commas, bare words and
    /// trailing bytes are errors.
    fn from_json(text: &str) -> Result<FaultPlan, String> {
        let v = json::parse(text).map_err(|e| format!("fault plan JSON: {e}"))?;
        let obj = v.as_obj().ok_or("fault plan JSON must be an object")?;
        let mut plan = FaultPlan::default();
        for (key, val) in obj {
            match key.as_str() {
                "seed" => {
                    plan.seed = val.as_f64().ok_or("seed must be a number")? as u64;
                }
                "loss" => {
                    plan.loss = val.as_f64().ok_or("loss must be a number")?;
                    parse_prob("loss", &plan.loss.to_string())?;
                }
                "corrupt" => {
                    plan.corrupt = val.as_f64().ok_or("corrupt must be a number")?;
                    parse_prob("corrupt", &plan.corrupt.to_string())?;
                }
                "outages" => {
                    for o in val.as_arr().ok_or("outages must be an array")? {
                        let (link, start, dur) = json_window(o, "link")?;
                        plan.outages.push(Outage { link, start, dur });
                    }
                }
                "degrades" => {
                    for o in val.as_arr().ok_or("degrades must be an array")? {
                        let (link, start, dur) = json_window(o, "link")?;
                        let factor = o
                            .num("factor")
                            .ok_or("degrade entry needs a numeric \"factor\"")?;
                        if !(factor > 0.0 && factor <= 1.0) {
                            return Err(format!("degrade factor must be in (0, 1], got {factor}"));
                        }
                        plan.degrades.push(Degrade {
                            link,
                            start,
                            dur,
                            factor,
                        });
                    }
                }
                "stalls" => {
                    for o in val.as_arr().ok_or("stalls must be an array")? {
                        let (ep, start, dur) = json_window(o, "ep")?;
                        plan.stalls.push(NicStall { ep, start, dur });
                    }
                }
                other => return Err(format!("unknown fault plan key {other:?}")),
            }
        }
        Ok(plan)
    }
}

fn parse_prob(what: &str, val: &str) -> Result<f64, String> {
    let p: f64 = val
        .parse()
        .map_err(|e| format!("bad {what} probability {val:?}: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{what} probability must be in [0, 1], got {p}"));
    }
    Ok(p)
}

/// Parse `<prefix><idx>@<start>+<dur>`, e.g. `link3@500us+200us`.
fn parse_window(prefix: &str, val: &str) -> Result<(usize, Dur, Dur), String> {
    let rest = val
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected {prefix}<idx>@<start>+<dur>, got {val:?}"))?;
    let (idx, times) = rest
        .split_once('@')
        .ok_or_else(|| format!("expected {prefix}<idx>@<start>+<dur>, got {val:?}"))?;
    let idx: usize = idx
        .trim()
        .parse()
        .map_err(|e| format!("bad {prefix} index {idx:?}: {e}"))?;
    let (start, dur) = times
        .split_once('+')
        .ok_or_else(|| format!("expected <start>+<dur> in {val:?}"))?;
    Ok((idx, parse_dur(start)?, parse_dur(dur)?))
}

/// Parse a duration: float + `ns`/`us`/`ms`/`s` suffix; bare = µs.
fn parse_dur(s: &str) -> Result<Dur, String> {
    let s = s.trim();
    let (num, scale_ps) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e9)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e12)
    } else {
        (s, 1e6)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|e| format!("bad duration {s:?}: {e}"))?;
    if v < 0.0 {
        return Err(format!("duration must be non-negative, got {s:?}"));
    }
    Ok(Dur((v * scale_ps).round() as u64))
}

fn json_window(o: &json::Value, idx_key: &str) -> Result<(usize, Dur, Dur), String> {
    let field = |key: &str| {
        o.num(key)
            .ok_or_else(|| format!("entry must be an object with {idx_key:?}/start_us/dur_us"))
    };
    let (idx, start, dur) = (
        field(idx_key)? as usize,
        field("start_us")?,
        field("dur_us")?,
    );
    if start < 0.0 || dur < 0.0 {
        return Err("start_us/dur_us must be non-negative".into());
    }
    Ok((idx, Dur::from_us_f64(start), Dur::from_us_f64(dur)))
}

/// The process-wide plan from `ELANIB_FAULTS`, if one is set, parses,
/// and is not effectless. A malformed spec is reported once on stderr
/// and ignored (fail-open: exhibits keep producing their baseline
/// numbers rather than aborting mid-regeneration).
pub fn env_plan() -> Option<Arc<FaultPlan>> {
    static PLAN: LazyLock<Option<Arc<FaultPlan>>> = LazyLock::new(|| {
        let spec = std::env::var("ELANIB_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(p) if p.is_effectless() => None,
            Ok(p) => Some(Arc::new(p)),
            Err(e) => {
                eprintln!("warning: ignoring ELANIB_FAULTS: {e}");
                None
            }
        }
    });
    PLAN.clone()
}

/// End-of-run fault and recovery totals for one fabric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped by the loss process.
    pub drops: u64,
    /// Packets corrupted by the CRC process.
    pub corrupts: u64,
    /// Messages that found their static route down and took an
    /// adaptive detour (Elan only).
    pub reroutes: u64,
    /// Messages that found a route down with no detour available.
    pub down_hits: u64,
    /// IB whole-message retransmissions (timeout-driven).
    pub ib_retransmits: u64,
    /// IB receiver-not-ready NAKs taken.
    pub rnr_naks: u64,
    /// IB queue pairs driven into the error state.
    pub qp_errors: u64,
    /// Elan link-level hardware packet retries.
    pub elan_link_retries: u64,
    /// Elan waits for an outage window to end (no detour existed).
    pub outage_waits: u64,
}

/// Per-fabric runtime fault state: the plan plus deterministic draw
/// counters and recovery totals. Lives behind `Rc` inside [`crate::Fabric`];
/// the NIC layer calls the `note_*` hooks as it exercises recovery.
pub struct FaultState {
    plan: Arc<FaultPlan>,
    /// Per-directed-channel packet sequence numbers: the draw index.
    pkt_seq: Vec<Cell<u64>>,
    drops: Cell<u64>,
    corrupts: Cell<u64>,
    reroutes: Cell<u64>,
    down_hits: Cell<u64>,
    ib_retransmits: Cell<u64>,
    rnr_naks: Cell<u64>,
    qp_errors: Cell<u64>,
    elan_link_retries: Cell<u64>,
    outage_waits: Cell<u64>,
}

impl FaultState {
    pub fn new(plan: Arc<FaultPlan>, n_directed_channels: usize) -> FaultState {
        FaultState {
            plan,
            pkt_seq: (0..n_directed_channels).map(|_| Cell::new(0)).collect(),
            drops: Cell::new(0),
            corrupts: Cell::new(0),
            reroutes: Cell::new(0),
            down_hits: Cell::new(0),
            ib_retransmits: Cell::new(0),
            rnr_naks: Cell::new(0),
            qp_errors: Cell::new(0),
            elan_link_retries: Cell::new(0),
            outage_waits: Cell::new(0),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draw the loss/corruption outcome for `packets` consecutive
    /// packets crossing directed channel `chan`. Returns
    /// `(lost, corrupted)` counts. The per-channel sequence number
    /// advances by `packets` even when both rates are zero, so adding
    /// a rate later never perturbs unrelated draws.
    pub fn sample_link(&self, chan: usize, packets: u64) -> (u64, u64) {
        let seq = &self.pkt_seq[chan];
        let base = seq.get();
        seq.set(base + packets);
        if self.plan.loss <= 0.0 && self.plan.corrupt <= 0.0 {
            return (0, 0);
        }
        let (mut lost, mut corrupted) = (0u64, 0u64);
        for n in base..base + packets {
            let r = unit_draw(self.plan.seed, chan as u64, n);
            if r < self.plan.loss {
                lost += 1;
            } else if r < self.plan.loss + self.plan.corrupt {
                corrupted += 1;
            }
        }
        self.drops.set(self.drops.get() + lost);
        self.corrupts.set(self.corrupts.get() + corrupted);
        (lost, corrupted)
    }

    /// If edge `edge` is inside an outage window at `t`, the instant
    /// the *latest* covering window ends.
    pub fn link_down(&self, edge: usize, t: SimTime) -> Option<SimTime> {
        let mut until: Option<SimTime> = None;
        for o in &self.plan.outages {
            if o.link != edge {
                continue;
            }
            let start = SimTime::ZERO + o.start;
            let end = start + o.dur;
            if t >= start && t < end {
                until = Some(match until {
                    Some(u) => u.max_t(end),
                    None => end,
                });
            }
        }
        until
    }

    /// Effective bandwidth factor for edge `edge` at `t` (1.0 = full
    /// rate). Overlapping degradations multiply.
    pub fn degrade(&self, edge: usize, t: SimTime) -> f64 {
        let mut f = 1.0;
        for d in &self.plan.degrades {
            if d.link != edge {
                continue;
            }
            let start = SimTime::ZERO + d.start;
            if t >= start && t < start + d.dur {
                f *= d.factor;
            }
        }
        f
    }

    /// If endpoint `ep`'s NIC is stalled at `t`, the instant the
    /// latest covering stall ends.
    pub fn stall_until(&self, ep: usize, t: SimTime) -> Option<SimTime> {
        let mut until: Option<SimTime> = None;
        for s in &self.plan.stalls {
            if s.ep != ep {
                continue;
            }
            let start = SimTime::ZERO + s.start;
            let end = start + s.dur;
            if t >= start && t < end {
                until = Some(match until {
                    Some(u) => u.max_t(end),
                    None => end,
                });
            }
        }
        until
    }

    pub fn note_reroute(&self) {
        self.reroutes.set(self.reroutes.get() + 1);
    }
    pub fn note_down_hit(&self) {
        self.down_hits.set(self.down_hits.get() + 1);
    }
    pub fn note_ib_retransmit(&self) {
        self.ib_retransmits.set(self.ib_retransmits.get() + 1);
    }
    pub fn note_rnr_nak(&self) {
        self.rnr_naks.set(self.rnr_naks.get() + 1);
    }
    pub fn note_qp_error(&self) {
        self.qp_errors.set(self.qp_errors.get() + 1);
    }
    pub fn note_elan_link_retries(&self, n: u64) {
        self.elan_link_retries.set(self.elan_link_retries.get() + n);
    }
    pub fn note_outage_wait(&self) {
        self.outage_waits.set(self.outage_waits.get() + 1);
    }

    pub fn stats(&self) -> FaultStats {
        FaultStats {
            drops: self.drops.get(),
            corrupts: self.corrupts.get(),
            reroutes: self.reroutes.get(),
            down_hits: self.down_hits.get(),
            ib_retransmits: self.ib_retransmits.get(),
            rnr_naks: self.rnr_naks.get(),
            qp_errors: self.qp_errors.get(),
            elan_link_retries: self.elan_link_retries.get(),
            outage_waits: self.outage_waits.get(),
        }
    }
}

/// SplitMix64-based stateless draw in `[0, 1)` — the fault layer's
/// only randomness. Independent of the kernel's RNG, thread count, and
/// evaluation order by construction.
fn unit_draw(seed: u64, chan: u64, n: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(chan.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(n.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_parses_every_directive() {
        let p = FaultPlan::parse(
            "seed=7, loss=1e-3, corrupt=1e-4, outage=link3@500us+200us, \
             degrade=link2@1ms+2ms*0.5, stall=ep1@300us+50us",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.loss, 1e-3);
        assert_eq!(p.corrupt, 1e-4);
        assert_eq!(
            p.outages,
            vec![Outage {
                link: 3,
                start: Dur::from_us(500),
                dur: Dur::from_us(200),
            }]
        );
        assert_eq!(p.degrades.len(), 1);
        assert_eq!(p.degrades[0].link, 2);
        assert_eq!(p.degrades[0].start, Dur::from_ms(1));
        assert_eq!(p.degrades[0].dur, Dur::from_ms(2));
        assert_eq!(p.degrades[0].factor, 0.5);
        assert_eq!(
            p.stalls,
            vec![NicStall {
                ep: 1,
                start: Dur::from_us(300),
                dur: Dur::from_us(50),
            }]
        );
    }

    #[test]
    fn newlines_and_comments_accepted() {
        let p = FaultPlan::parse("seed=3 # the seed\nloss=0.01\n# whole-line comment\n").unwrap();
        assert_eq!(p.seed, 3);
        assert_eq!(p.loss, 0.01);
    }

    #[test]
    fn durations_parse_all_units() {
        assert_eq!(parse_dur("5ns").unwrap(), Dur::from_ns(5));
        assert_eq!(parse_dur("5us").unwrap(), Dur::from_us(5));
        assert_eq!(parse_dur("5ms").unwrap(), Dur::from_ms(5));
        assert_eq!(parse_dur("1s").unwrap(), Dur(1_000_000_000_000));
        assert_eq!(parse_dur("2.5").unwrap(), Dur::from_us_f64(2.5)); // bare = µs
    }

    #[test]
    fn json_form_parses() {
        let p = FaultPlan::parse(
            r#"{"seed": 7, "loss": 0.001,
                "outages":  [{"link": 3, "start_us": 500, "dur_us": 200}],
                "degrades": [{"link": 2, "start_us": 1000, "dur_us": 2000, "factor": 0.5}],
                "stalls":   [{"ep": 1, "start_us": 300, "dur_us": 50}]}"#,
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.loss, 0.001);
        assert_eq!(p.outages[0].link, 3);
        assert_eq!(p.outages[0].start, Dur::from_us(500));
        assert_eq!(p.degrades[0].factor, 0.5);
        assert_eq!(p.stalls[0].ep, 1);
    }

    #[test]
    fn parse_errors_are_reported_not_panics() {
        assert!(FaultPlan::parse("loss=2.0").is_err()); // out of range
        assert!(FaultPlan::parse("frob=1").is_err()); // unknown key
        assert!(FaultPlan::parse("outage=link3").is_err()); // no window
        assert!(FaultPlan::parse("degrade=link1@0+1ms*1.5").is_err()); // factor > 1
        assert!(FaultPlan::parse("{\"nope\": 1}").is_err());
        assert!(FaultPlan::parse("{bad json").is_err());
    }

    #[test]
    fn effectless_detection() {
        assert!(FaultPlan::parse("").unwrap().is_effectless());
        assert!(FaultPlan::parse("seed=9, loss=0").unwrap().is_effectless());
        assert!(!FaultPlan::parse("loss=1e-6").unwrap().is_effectless());
        assert!(!FaultPlan::parse("outage=link0@0+1us")
            .unwrap()
            .is_effectless());
    }

    #[test]
    fn windows_outside_the_run_filter_to_provable_noops() {
        let plan = FaultPlan::parse(
            "outage=link0@500us+100us, degrade=link1@900us+10us*0.5, stall=ep0@1ms+1us",
        )
        .unwrap();
        // Horizon below every window start: the whole schedule is a
        // provable no-op and the plan collapses to effectless.
        let t = plan.truncated_to(Dur::from_us(400));
        assert!(t.is_effectless(), "{t:?}");
        // Horizon inside the first window: only it survives.
        let t = plan.truncated_to(Dur::from_us(600));
        assert_eq!(t.outages.len(), 1);
        assert!(t.degrades.is_empty() && t.stalls.is_empty());
        // A window starting exactly at the horizon is outside the run
        // (the run's events all land strictly before it).
        assert!(plan.truncated_to(Dur::from_us(500)).outages.is_empty());
        // Rates have no schedule to prune: a lossy plan stays live.
        let lossy = FaultPlan::parse("loss=1e-3, outage=link0@1s+1s").unwrap();
        let t = lossy.truncated_to(Dur::from_us(1));
        assert!(t.outages.is_empty() && !t.is_effectless());
        // Zero-length windows are empty under end-exclusivity.
        let z = FaultPlan {
            outages: vec![Outage {
                link: 0,
                start: Dur::from_us(1),
                dur: Dur::ZERO,
            }],
            ..FaultPlan::default()
        };
        assert!(z.truncated_to(Dur::from_secs(1)).is_effectless());
    }

    #[test]
    fn sampled_plans_are_pure_functions_of_the_seed() {
        let horizon = Dur::from_ms(1);
        let mut distinct = 0;
        for seed in 0..50u64 {
            let a = FaultPlan::sample(seed, 24, 8, horizon);
            assert_eq!(a, FaultPlan::sample(seed, 24, 8, horizon));
            for o in &a.outages {
                assert!(o.link < 24 && o.start < horizon && o.dur > Dur::ZERO);
            }
            for d in &a.degrades {
                assert!(d.link < 24 && (0.25..=1.0).contains(&d.factor));
            }
            for s in &a.stalls {
                assert!(s.ep < 8);
            }
            if !a.is_effectless() {
                distinct += 1;
            }
        }
        assert!(distinct > 10, "sampling must produce live plans");
        assert_ne!(
            FaultPlan::sample(1, 24, 8, horizon),
            FaultPlan::sample(2, 24, 8, horizon)
        );
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler() {
        let size = |p: &FaultPlan| {
            p.outages.len()
                + p.degrades.len()
                + p.stalls.len()
                + (p.loss > 0.0) as usize
                + (p.corrupt > 0.0) as usize
        };
        let plan = FaultPlan::parse(
            "loss=0.01, corrupt=0.001, outage=link0@1us+1us, outage=link1@2us+1us, \
             stall=ep0@1us+1us",
        )
        .unwrap();
        let cands = plan.shrink_candidates();
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(size(c) < size(&plan), "not simpler: {c:?}");
        }
        assert!(FaultPlan::default().shrink_candidates().is_empty());
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let plan = Arc::new(FaultPlan {
            loss: 0.3,
            ..FaultPlan::default()
        });
        let a = FaultState::new(plan.clone(), 4);
        let b = FaultState::new(plan.clone(), 4);
        for chan in 0..4 {
            assert_eq!(a.sample_link(chan, 100), b.sample_link(chan, 100));
        }
        let other = FaultState::new(
            Arc::new(FaultPlan {
                seed: 2,
                ..(*plan).clone()
            }),
            4,
        );
        let a2 = FaultState::new(plan, 4);
        let mut diff = false;
        for chan in 0..4 {
            if a2.sample_link(chan, 100) != other.sample_link(chan, 100) {
                diff = true;
            }
        }
        assert!(diff, "different seeds should change at least one draw");
    }

    #[test]
    fn loss_rate_roughly_matches_probability() {
        let plan = Arc::new(FaultPlan {
            loss: 0.1,
            ..FaultPlan::default()
        });
        let fs = FaultState::new(plan, 1);
        let (lost, _) = fs.sample_link(0, 100_000);
        let rate = lost as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "observed loss rate {rate}");
        assert_eq!(fs.stats().drops, lost);
    }

    #[test]
    fn sequence_advances_even_at_zero_rate() {
        // A zero-rate channel must consume the same draw indices as a
        // lossy one, so turning a rate on later never shifts other
        // channels' draws.
        let lossy = Arc::new(FaultPlan {
            loss: 0.5,
            ..FaultPlan::default()
        });
        let clean = Arc::new(FaultPlan::default());
        let a = FaultState::new(lossy.clone(), 1);
        let b = FaultState::new(clean, 1);
        b.sample_link(0, 50); // advance past 50 packets at zero rate
        let a_ref = FaultState::new(lossy, 1);
        a_ref.sample_link(0, 50);
        let skipped = a_ref.sample_link(0, 10);
        a.sample_link(0, 50);
        assert_eq!(a.sample_link(0, 10), skipped);
        assert_eq!(b.pkt_seq[0].get(), 50);
    }

    #[test]
    fn outage_window_edges() {
        let plan = Arc::new(
            FaultPlan::parse("outage=link1@100us+50us, outage=link1@120us+100us").unwrap(),
        );
        let fs = FaultState::new(plan, 4);
        let t = |us: u64| SimTime::ZERO + Dur::from_us(us);
        assert_eq!(fs.link_down(1, t(99)), None);
        assert_eq!(fs.link_down(1, t(100)), Some(t(150))); // first window
        assert_eq!(fs.link_down(1, t(130)), Some(t(220))); // overlapping: latest end
        assert_eq!(fs.link_down(1, t(150)), Some(t(220)));
        assert_eq!(fs.link_down(1, t(220)), None); // end-exclusive
        assert_eq!(fs.link_down(0, t(130)), None); // other link unaffected
    }

    #[test]
    fn degrade_and_stall_windows() {
        let plan = Arc::new(
            FaultPlan::parse(
                "degrade=link0@100us+100us*0.5, degrade=link0@150us+100us*0.5, \
                              stall=ep2@10us+5us",
            )
            .unwrap(),
        );
        let fs = FaultState::new(plan, 2);
        let t = |us: u64| SimTime::ZERO + Dur::from_us(us);
        assert_eq!(fs.degrade(0, t(50)), 1.0);
        assert_eq!(fs.degrade(0, t(120)), 0.5);
        assert_eq!(fs.degrade(0, t(180)), 0.25); // overlap multiplies
        assert_eq!(fs.degrade(1, t(120)), 1.0);
        assert_eq!(fs.stall_until(2, t(12)), Some(t(15)));
        assert_eq!(fs.stall_until(2, t(15)), None);
        assert_eq!(fs.stall_until(0, t(12)), None);
    }
}
