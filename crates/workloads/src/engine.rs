//! The synthetic server engine: turns a [`WorkloadSpec`] into a branch
//! stream.
//!
//! Each *request* walks: a poll loop → dispatch branches encoding the
//! request type → an indirect call into the per-type route function → a call
//! into the shared handler → the handler body (leaf calls, conditional
//! sites, jumps) → returns. See the crate docs for why this shape reproduces
//! the phenomena the paper studies.

use std::collections::VecDeque;

use traces::{BranchKind, BranchRecord, BranchStream};

use crate::hashing::{mix64, mix_all, mix_bool, mix_range, XorShift};
use crate::spec::{
    WorkloadSpec, DISPATCH_BITS, GAP_MAX, GAP_MIN, JUMP_PROB, LEAF_CALL_PROB, LEAF_SELECT_MOD,
    LEAVES, LOCAL_PROB, LOOP_FRACTION, MAX_TRIP, WORKING_SET, ZIPF_EXPONENT,
};
use crate::zipf::Zipf;

/// Address layout of the synthetic program (one region per function kind).
pub mod layout {
    /// Poll-loop branch ("more requests?").
    pub const POLL_PC: u64 = 0x0100_0040;
    /// Base of the dispatch-bit branches (`+ j * 0x40`).
    pub const DISPATCH_BASE: u64 = 0x0100_0100;
    /// The indirect call into the route function.
    pub const DISPATCH_ICALL: u64 = 0x0100_0800;
    /// Route function of request type `r`.
    pub fn route_pc(r: usize) -> u64 {
        0x0200_0000 + (r as u64) * 0x1000
    }
    /// Handler function of handler index `h`.
    pub fn handler_pc(h: usize) -> u64 {
        0x0300_0000 + (h as u64) * 0x1_0000
    }
    /// Base address of site `j` in handler `h` (each site spans 0x100).
    pub fn site_base(h: usize, j: usize) -> u64 {
        handler_pc(h) + 0x100 + (j as u64) * 0x100
    }
    /// Leaf function `l`.
    pub fn leaf_pc(l: usize) -> u64 {
        0x0400_0000 + (l as u64) * 0x1000
    }
}

/// Static behaviour class of a handler site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteClass {
    /// Outcome is a deterministic function of (site, request type): the
    /// bread-and-butter patterns that stress predictor capacity.
    Typed,
    /// Noisy-biased outcome (bias drawn per site): the irreducible floor.
    Noisy,
    /// Loop with a per-request-type trip count.
    Loop,
    /// Outcome depends on the *previous* request's type as well: the
    /// hard-to-predict, long-history branches of §III-B.
    H2p,
}

// Salts for the deterministic draws; arbitrary distinct constants.
const SALT_CLASS: u64 = 0x11;
const SALT_BIAS: u64 = 0x22;
const SALT_DIR: u64 = 0x33;
const SALT_OUTCOME: u64 = 0x44;
const SALT_H2P: u64 = 0x55;
const SALT_TRIP: u64 = 0x66;
const SALT_LEAF: u64 = 0x77;
const SALT_JUMP: u64 = 0x88;
const SALT_LEAF_CALL: u64 = 0x99;
const SALT_RBITS: u64 = 0xaa;

/// One handler site's static draws, packed into a byte: the [`SiteClass`]
/// in the low two bits, then whether the site calls a leaf, whether it
/// ends in a jump, and a Noisy site's bias direction. A handler's draws are
/// made on its first request and then read by every later one instead of
/// rehashed; drawing lazily keeps a short run from paying for handlers it
/// never reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SiteDraws(u8);

impl SiteDraws {
    /// The classes in declaration order, so `class as u8` indexes them.
    const CLASSES: [SiteClass; 4] = [
        SiteClass::Typed,
        SiteClass::Noisy,
        SiteClass::Loop,
        SiteClass::H2p,
    ];
    const LEAF_CALL: u8 = 1 << 2;
    const JUMP: u8 = 1 << 3;
    const NOISY_DIR: u8 = 1 << 4;
    /// A site not drawn yet; no draw sets bit 7.
    const UNDRAWN: SiteDraws = SiteDraws(0xff);

    fn new(spec: &WorkloadSpec, h: usize, j: usize) -> Self {
        let class = ServerWorkload::site_class(spec, h, j);
        let mut bits = class as u8;
        let draw = |salt| mix_all(&[spec.seed, h as u64, j as u64, salt]) as f64 / u64::MAX as f64;
        if draw(SALT_LEAF_CALL) < LEAF_CALL_PROB {
            bits |= Self::LEAF_CALL;
        }
        if draw(SALT_JUMP) < JUMP_PROB {
            bits |= Self::JUMP;
        }
        if class == SiteClass::Noisy && mix_bool(&[spec.seed, h as u64, j as u64, SALT_DIR]) {
            bits |= Self::NOISY_DIR;
        }
        SiteDraws(bits)
    }

    #[inline]
    fn class(self) -> SiteClass {
        Self::CLASSES[usize::from(self.0 & 3)]
    }

    #[inline]
    fn has(self, flag: u8) -> bool {
        self.0 & flag != 0
    }
}

/// One leaf function's static draws: its first branch's bias and
/// direction, and whether its second branch inverts the first.
#[derive(Debug, Clone, Copy)]
struct LeafDraws {
    bias: f64,
    dir: bool,
    invert: bool,
}

impl LeafDraws {
    fn new(spec: &WorkloadSpec, l: usize) -> Self {
        // Kept highly biased: each leaf call injects one weakly-noisy bit
        // into global history, and the density of such bits bounds how
        // often long patterns re-match.
        let bias =
            0.97 + 0.025 * (mix_all(&[spec.seed, l as u64, SALT_BIAS]) as f64 / u64::MAX as f64);
        LeafDraws {
            bias,
            dir: mix_bool(&[spec.seed, l as u64, SALT_DIR]),
            invert: mix_bool(&[spec.seed, l as u64, 2]),
        }
    }
}

/// A deterministic branch-stream generator for one [`WorkloadSpec`].
///
/// Implements [`BranchStream`] and never ends; bound it with
/// [`traces::StreamExt::take_branches`].
#[derive(Debug, Clone)]
pub struct ServerWorkload {
    spec: WorkloadSpec,
    zipf: Zipf,
    rng: XorShift,
    /// Static draws of handler site `(h, j)` at `h * branches_per_handler + j`,
    /// [`SiteDraws::UNDRAWN`] until handler `h` first runs.
    sites: Vec<SiteDraws>,
    /// Static draws of each leaf function.
    leaves: Vec<LeafDraws>,
    /// Recency list of request types (session working set).
    working: VecDeque<usize>,
    current_r: usize,
    prev_r: usize,
    buf: VecDeque<BranchRecord>,
}

impl ServerWorkload {
    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`WorkloadSpec::validate`]; use
    /// [`ServerWorkload::try_new`] to handle invalid specs structurally.
    pub fn new(spec: &WorkloadSpec) -> Self {
        Self::try_new(spec).unwrap_or_else(|e| panic!("invalid workload spec `{}`: {e}", spec.name))
    }

    /// Builds the generator, reporting a failed [`WorkloadSpec::validate`]
    /// as the validation message instead of panicking.
    pub fn try_new(spec: &WorkloadSpec) -> Result<Self, String> {
        spec.validate()?;
        let mut rng = XorShift::new(spec.seed);
        let zipf = Zipf::new(spec.request_types, ZIPF_EXPONENT);
        let first = zipf.sample(&mut rng);
        Ok(ServerWorkload {
            sites: vec![SiteDraws::UNDRAWN; spec.handlers * spec.branches_per_handler],
            leaves: (0..LEAVES).map(|l| LeafDraws::new(spec, l)).collect(),
            zipf,
            rng,
            working: VecDeque::with_capacity(WORKING_SET),
            current_r: first,
            prev_r: first,
            buf: VecDeque::with_capacity(512),
            spec: spec.clone(),
        })
    }

    /// Static class of handler site `(h, j)`.
    ///
    /// The last [`WorkloadSpec::h2p_per_handler`] sites of each handler are
    /// H2P; the rest are split by a per-site deterministic draw.
    pub fn site_class(spec: &WorkloadSpec, h: usize, j: usize) -> SiteClass {
        if j >= spec.branches_per_handler - spec.h2p_per_handler {
            return SiteClass::H2p;
        }
        let u = mix_all(&[spec.seed, h as u64, j as u64, SALT_CLASS]) as f64 / u64::MAX as f64;
        if u < spec.noise_fraction {
            SiteClass::Noisy
        } else if u < spec.noise_fraction + LOOP_FRACTION {
            SiteClass::Loop
        } else {
            SiteClass::Typed
        }
    }

    /// Maps a conditional-branch PC back to its handler site, if it is one.
    pub fn classify_pc(spec: &WorkloadSpec, pc: u64) -> Option<(usize, usize, SiteClass)> {
        if !(0x0300_0000..0x0400_0000).contains(&pc) {
            return None;
        }
        let h = ((pc - 0x0300_0000) / 0x1_0000) as usize;
        let within = pc - layout::handler_pc(h);
        if within < 0x100 || h >= spec.handlers {
            return None;
        }
        let j = ((within - 0x100) / 0x100) as usize;
        if j >= spec.branches_per_handler {
            return None;
        }
        Some((h, j, Self::site_class(spec, h, j)))
    }

    #[inline]
    fn gap(&mut self) -> u32 {
        let span = u64::from(GAP_MAX - GAP_MIN) + 1;
        GAP_MIN + self.rng.next_range(span) as u32
    }

    #[inline]
    fn push(&mut self, pc: u64, target: u64, kind: BranchKind, taken: bool) {
        let gap = self.gap();
        self.buf
            .push_back(BranchRecord::new(pc, target, kind, taken, gap));
    }

    /// Samples the next request type (session bursts + working set + Zipf).
    fn next_request_type(&mut self) -> usize {
        if self.rng.next_bool(self.spec.session_stay) {
            return self.current_r;
        }
        let r = if !self.working.is_empty() && self.rng.next_bool(LOCAL_PROB) {
            let i = self.rng.next_range(self.working.len() as u64) as usize;
            self.working[i]
        } else {
            self.zipf.sample(&mut self.rng)
        };
        // Move-to-front recency update.
        self.working.retain(|&w| w != r);
        self.working.push_front(r);
        self.working.truncate(WORKING_SET);
        r
    }

    fn emit_leaf(&mut self, h: usize, j: usize, r: usize) {
        let spec = &self.spec;
        let l = mix_range(
            &[
                spec.seed,
                h as u64,
                j as u64,
                (r % LEAF_SELECT_MOD) as u64,
                SALT_LEAF,
            ],
            LEAVES as u64,
        ) as usize;
        let site = layout::site_base(h, j);
        let leaf = layout::leaf_pc(l);
        self.push(site, leaf, BranchKind::DirectCall, true);

        // Branch 1: noisy-biased, per-leaf bias and direction.
        let draws = self.leaves[l];
        let b1 = self.rng.next_bool(draws.bias) == draws.dir;
        self.push(leaf + 0x40, leaf + 0x60, BranchKind::CondDirect, b1);

        // Optional short fixed-trip loop (half the leaves).
        if l.is_multiple_of(2) {
            let trip = 1 + (l as u32 % 3);
            for i in 0..=trip {
                self.push(leaf + 0x80, leaf + 0x74, BranchKind::CondDirect, i < trip);
            }
        }

        // Branch 2: copies (or inverts) branch 1 — pure short-history
        // correlation, the "easy" pattern contextualization duplicates.
        let b2 = b1 ^ draws.invert;
        self.push(leaf + 0xc0, leaf + 0xe0, BranchKind::CondDirect, b2);

        self.push(leaf + 0x100, site + 4, BranchKind::Return, true);
    }

    fn emit_site(&mut self, h: usize, j: usize, r: usize, draws: SiteDraws) {
        let spec_seed = self.spec.seed;
        let site = layout::site_base(h, j);
        let branch_pc = site + 0x40;
        match draws.class() {
            SiteClass::Typed => {
                // The literal 0 is part of the hash input every preset's
                // pinned stream was recorded with; dropping it would
                // change every Typed outcome.
                let taken = mix_bool(&[spec_seed, h as u64, j as u64, r as u64, 0, SALT_OUTCOME]);
                self.push(branch_pc, branch_pc + 0x20, BranchKind::CondDirect, taken);
            }
            SiteClass::Noisy => {
                // The bias is hashed per entry: a precomputed f64 per site
                // would outweigh the rest of the site table eightfold.
                let span = self.spec.noise_bias_max - self.spec.noise_bias_min;
                let bias = self.spec.noise_bias_min
                    + span
                        * (mix_all(&[spec_seed, h as u64, j as u64, SALT_BIAS]) as f64
                            / u64::MAX as f64);
                let taken = self.rng.next_bool(bias) == draws.has(SiteDraws::NOISY_DIR);
                self.push(branch_pc, branch_pc + 0x20, BranchKind::CondDirect, taken);
            }
            SiteClass::Loop => {
                let trip = 1 + mix_range(
                    &[spec_seed, h as u64, j as u64, r as u64, SALT_TRIP],
                    u64::from(MAX_TRIP),
                ) as u32;
                for i in 0..=trip {
                    self.push(
                        branch_pc,
                        branch_pc - 0x10,
                        BranchKind::CondDirect,
                        i < trip,
                    );
                }
            }
            SiteClass::H2p => {
                // Deterministic in (site, current type, previous type): the
                // disambiguating information sits a full request back in
                // global history — one to a few hundred bits — and each
                // site needs one pattern per (r, prev_r) pair. These are
                // the paper's H2P branches.
                let taken = mix_bool(&[
                    spec_seed,
                    h as u64,
                    j as u64,
                    r as u64,
                    self.prev_r as u64,
                    SALT_H2P,
                ]);
                self.push(branch_pc, branch_pc + 0x20, BranchKind::CondDirect, taken);
            }
        }
    }

    /// Emits the full record sequence of one request into the buffer.
    fn emit_request(&mut self) {
        let _t = telemetry::scope!("workload::emit_request");
        let r = self.next_request_type();
        let h = r % self.spec.handlers;

        // Poll loop: almost always "another request is ready".
        let poll_taken = !self.rng.next_bool(0.02);
        self.push(
            layout::POLL_PC,
            layout::POLL_PC - 0x20,
            BranchKind::CondDirect,
            poll_taken,
        );

        // Dispatch bits encode a mixed image of r (balanced bits).
        let rbits = mix64(self.spec.seed ^ (r as u64) ^ SALT_RBITS);
        for j in 0..DISPATCH_BITS {
            let pc = layout::DISPATCH_BASE + u64::from(j) * 0x40;
            let taken = (rbits >> j) & 1 == 1;
            self.push(pc, pc + 0x20, BranchKind::CondDirect, taken);
        }

        // Into the route function (target encodes r in the UB stream).
        let route = layout::route_pc(r);
        self.push(
            layout::DISPATCH_ICALL,
            route,
            BranchKind::IndirectCall,
            true,
        );
        let handler = layout::handler_pc(h);
        self.push(route + 0x10, handler, BranchKind::DirectCall, true);

        // Handler body.
        let per_handler = self.spec.branches_per_handler;
        let first = h * per_handler;
        if self.sites[first] == SiteDraws::UNDRAWN {
            for j in 0..per_handler {
                self.sites[first + j] = SiteDraws::new(&self.spec, h, j);
            }
        }
        for j in 0..per_handler {
            let draws = self.sites[first + j];
            if draws.has(SiteDraws::LEAF_CALL) {
                self.emit_leaf(h, j, r);
            }
            self.emit_site(h, j, r, draws);
            if draws.has(SiteDraws::JUMP) {
                let site = layout::site_base(h, j);
                self.push(site + 0x80, site + 0x100, BranchKind::UncondDirect, true);
            }
        }

        // Unwind.
        let ret_pc = handler + 0x100 + (self.spec.branches_per_handler as u64) * 0x100;
        self.push(ret_pc, route + 0x14, BranchKind::Return, true);
        self.push(
            route + 0x20,
            layout::DISPATCH_ICALL + 4,
            BranchKind::Return,
            true,
        );

        self.prev_r = self.current_r;
        self.current_r = r;
    }
}

impl BranchStream for ServerWorkload {
    #[inline]
    fn next_branch(&mut self) -> Option<BranchRecord> {
        loop {
            if let Some(r) = self.buf.pop_front() {
                return Some(r);
            }
            self.emit_request();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::{StreamExt, TraceStats};

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::new("test", 7)
            .with_request_types(64)
            .with_handlers(8)
            .with_branches_per_handler(12)
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a: Vec<_> = ServerWorkload::new(&small_spec())
            .take_branches(5000)
            .iter()
            .collect();
        let b: Vec<_> = ServerWorkload::new(&small_spec())
            .take_branches(5000)
            .iter()
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = ServerWorkload::new(&WorkloadSpec {
            seed: 8,
            ..small_spec()
        })
        .take_branches(5000)
        .iter()
        .collect();
        assert_ne!(a, c);
    }

    /// Beyond taken unconditionals, every preset's stream keeps the
    /// structural invariants the predictors rely on: nonzero 4-byte-aligned
    /// PCs and taken targets, and fallthrough to a strictly higher PC after
    /// a not-taken conditional.
    #[test]
    fn unconditionals_are_always_taken() {
        const BUDGET: u64 = 200_000;
        for preset in crate::presets::all() {
            let name = &preset.spec.name;
            let mut stream = ServerWorkload::new(&preset.spec);
            let mut prev: Option<BranchRecord> = None;
            let mut instructions = 0u64;
            while instructions < BUDGET {
                let rec = stream.next_branch().expect("generators never end");
                let pc = rec.pc;
                assert!(pc != 0 && pc.is_multiple_of(4), "{name}: bad PC {pc:#x}");
                if rec.taken {
                    let target = rec.target;
                    assert!(
                        target != 0 && target.is_multiple_of(4),
                        "{name}: branch at {pc:#x} has bad target {target:#x}"
                    );
                }
                if rec.kind.is_unconditional() {
                    assert!(rec.taken, "{name}: unconditional at {pc:#x} not taken");
                }
                if let Some(p) = prev.filter(|p| p.kind.is_conditional() && !p.taken) {
                    assert!(
                        pc > p.pc,
                        "{name}: {pc:#x} does not fall through from {:#x}",
                        p.pc
                    );
                }
                prev = Some(rec);
                instructions += rec.instructions();
            }
        }
    }

    #[test]
    fn stream_has_server_like_shape() {
        let stats =
            TraceStats::from_stream(ServerWorkload::new(&small_spec()).take_branches(50_000));
        // Conditional majority, healthy unconditional mix for the RCR.
        let cond_share = stats.conditional_branches() as f64 / stats.branches as f64;
        assert!(
            (0.5..0.95).contains(&cond_share),
            "conditional share {cond_share}"
        );
        assert!(stats.per_kind[BranchKind::DirectCall as usize] > 1000);
        assert!(stats.per_kind[BranchKind::Return as usize] > 1000);
        assert!(stats.per_kind[BranchKind::IndirectCall as usize] > 100);
        // Calls and returns must balance (every call returns).
        let calls = stats.per_kind[BranchKind::DirectCall as usize]
            + stats.per_kind[BranchKind::IndirectCall as usize];
        let rets = stats.per_kind[BranchKind::Return as usize];
        let imbalance = (calls as f64 - rets as f64).abs() / calls as f64;
        assert!(imbalance < 0.05, "call/return imbalance {imbalance}");
    }

    #[test]
    fn site_classes_cover_the_mix() {
        let spec = small_spec();
        let mut seen = std::collections::HashMap::new();
        for h in 0..spec.handlers {
            for j in 0..spec.branches_per_handler {
                *seen
                    .entry(ServerWorkload::site_class(&spec, h, j))
                    .or_insert(0) += 1;
            }
        }
        assert!(seen[&SiteClass::Typed] > 0);
        assert!(seen[&SiteClass::H2p] as usize == spec.handlers * spec.h2p_per_handler);
        // Noise/loop fractions are statistical; with 96 sites expect ≥ 1.
        assert!(seen.get(&SiteClass::Noisy).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn classify_pc_roundtrips_site_addresses() {
        let spec = small_spec();
        for h in [0usize, 3, 7] {
            for j in [0usize, 5, 11] {
                let pc = layout::site_base(h, j) + 0x40;
                let (ch, cj, class) =
                    ServerWorkload::classify_pc(&spec, pc).expect("site pc classifies");
                assert_eq!((ch, cj), (h, j));
                assert_eq!(class, ServerWorkload::site_class(&spec, h, j));
            }
        }
        assert_eq!(ServerWorkload::classify_pc(&spec, layout::POLL_PC), None);
        assert_eq!(
            ServerWorkload::classify_pc(&spec, layout::leaf_pc(3) + 0x40),
            None
        );
    }

    #[test]
    fn h2p_outcomes_depend_on_previous_request_type() {
        // Directly check the outcome function: same (h, j, r) but
        // different prev_r must flip the outcome for some inputs.
        let spec = small_spec();
        let h = 0;
        let j = spec.branches_per_handler - 1; // an H2P site
        assert_eq!(ServerWorkload::site_class(&spec, h, j), SiteClass::H2p);
        let outcomes: Vec<bool> = (0..32u64)
            .map(|prev| mix_bool(&[spec.seed, h as u64, j as u64, 5, prev, SALT_H2P]))
            .collect();
        assert!(outcomes.iter().any(|&o| o) && outcomes.iter().any(|&o| !o));
    }

    #[test]
    fn gaps_respect_the_configured_range() {
        for rec in ServerWorkload::new(&small_spec())
            .take_branches(10_000)
            .iter()
        {
            assert!((GAP_MIN..=GAP_MAX).contains(&rec.instr_gap));
        }
    }

    #[test]
    fn session_stay_controls_type_churn() {
        let churn = |stay: f64| {
            let spec = WorkloadSpec {
                session_stay: stay,
                ..small_spec()
            };
            let mut w = ServerWorkload::new(&spec);
            let mut changes = 0;
            let mut last = w.current_r;
            for _ in 0..2000 {
                w.emit_request();
                if w.current_r != last {
                    changes += 1;
                }
                last = w.current_r;
                w.buf.clear();
            }
            changes
        };
        assert!(
            churn(0.95) < churn(0.3),
            "higher stay must mean fewer type changes"
        );
    }
}
