//! Workload specification: what a preset varies, and the fixed shape
//! every preset shares.
//!
//! A [`WorkloadSpec`] holds only the values some preset in
//! [`crate::presets`] sets. The rest of the synthetic server's shape is
//! the same for every workload and lives here as constants.

/// Shared utility leaf functions.
pub const LEAVES: usize = 48;
/// Probability that a handler site is preceded by a call to a leaf.
pub const LEAF_CALL_PROB: f64 = 0.35;
/// The leaf called at a site depends on `r % LEAF_SELECT_MOD`, which
/// injects request-type bits into the unconditional-branch stream (and so
/// into LLBP's contexts).
pub const LEAF_SELECT_MOD: usize = 8;
/// Probability of an unconditional jump after a handler site.
pub const JUMP_PROB: f64 = 0.25;
/// Fraction of handler sites (before the H2P tail) that are loops.
pub const LOOP_FRACTION: f64 = 0.10;
/// Loop trip counts are `1 + hash(site, request type) % MAX_TRIP`.
pub const MAX_TRIP: u16 = 6;
/// Zipf exponent of request-type popularity (0 would be uniform).
pub const ZIPF_EXPONENT: f64 = 0.9;
/// Size of the recently-seen request-type working set.
pub const WORKING_SET: usize = 8;
/// Probability, when a request leaves its session, of redrawing its type
/// from the working set rather than from the Zipf distribution.
pub const LOCAL_PROB: f64 = 0.5;
/// Conditional dispatch branches encoding each request's type.
pub const DISPATCH_BITS: u32 = 6;
/// Minimum non-branch instructions between two branches.
pub const GAP_MIN: u32 = 2;
/// Maximum non-branch instructions between two branches.
pub const GAP_MAX: u32 = 10;

// The generator divides and draws ranges by these; a zero or an inverted
// range would panic mid-stream, so reject it at compile time.
const _: () = assert!(LEAVES > 0 && LEAF_SELECT_MOD > 0 && MAX_TRIP > 0 && GAP_MIN <= GAP_MAX);

/// The per-workload parameters of a synthetic server.
///
/// The defaults describe a mid-sized service; the fourteen presets in
/// [`crate::presets`] are tuned variants. All randomness derives from
/// `seed`, so a spec identifies a bit-exact branch stream.
///
/// ```
/// use workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::new("custom", 42)
///     .with_request_types(256)
///     .with_handlers(32)
///     .with_noise(0.10, 0.88, 0.97);
/// assert_eq!(spec.validate(), Ok(()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name (used in reports and tables).
    pub name: String,
    /// Master seed for all deterministic draws.
    pub seed: u64,

    // Program shape -------------------------------------------------------
    /// Number of distinct request types `R`. Each type has its own route
    /// function; popularity is Zipf-distributed.
    pub request_types: usize,
    /// Number of shared handler functions `H`; request `r` is handled by
    /// `r % H`.
    pub handlers: usize,
    /// Conditional branch sites per handler body.
    pub branches_per_handler: usize,
    /// Handler sites (at the end of each body) whose outcome additionally
    /// depends on the *previous* request's type — the H2P branches.
    pub h2p_per_handler: usize,

    // Behaviour mix -------------------------------------------------------
    /// Fraction of handler sites with noisy-biased outcomes.
    pub noise_fraction: f64,
    /// Taken-probability bounds for noisy sites (direction randomized).
    pub noise_bias_min: f64,
    /// Upper bound of the noisy bias.
    pub noise_bias_max: f64,

    // Request process -----------------------------------------------------
    /// Probability the next request keeps the current type (session burst).
    pub session_stay: f64,
}

impl WorkloadSpec {
    /// A mid-sized service with `name` and `seed`.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        WorkloadSpec {
            name: name.into(),
            seed,
            request_types: 1024,
            handlers: 64,
            branches_per_handler: 24,
            h2p_per_handler: 2,
            noise_fraction: 0.08,
            noise_bias_min: 0.90,
            noise_bias_max: 0.98,
            session_stay: 0.85,
        }
    }

    /// Sets the number of request types.
    pub fn with_request_types(mut self, n: usize) -> Self {
        self.request_types = n;
        self
    }

    /// Sets the number of handler functions.
    pub fn with_handlers(mut self, n: usize) -> Self {
        self.handlers = n;
        self
    }

    /// Sets the noisy-branch mix: fraction of sites and bias bounds.
    pub fn with_noise(mut self, fraction: f64, bias_min: f64, bias_max: f64) -> Self {
        self.noise_fraction = fraction;
        self.noise_bias_min = bias_min;
        self.noise_bias_max = bias_max;
        self
    }

    /// Sets the session-burst stay probability.
    pub fn with_session_stay(mut self, stay: f64) -> Self {
        self.session_stay = stay;
        self
    }

    /// Sets the H2P (previous-request-correlated) sites per handler.
    pub fn with_h2p_per_handler(mut self, n: usize) -> Self {
        self.h2p_per_handler = n;
        self
    }

    /// Sets the branch sites per handler body.
    pub fn with_branches_per_handler(mut self, n: usize) -> Self {
        self.branches_per_handler = n;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.request_types == 0 {
            return Err("request_types must be positive".into());
        }
        if self.handlers == 0 || self.handlers > self.request_types {
            return Err("handlers must be in 1..=request_types".into());
        }
        if self.branches_per_handler == 0 {
            return Err("branches_per_handler must be positive".into());
        }
        if self.h2p_per_handler > self.branches_per_handler {
            return Err("h2p_per_handler exceeds branches_per_handler".into());
        }
        for (label, p) in [
            ("noise_fraction", self.noise_fraction),
            ("session_stay", self.session_stay),
            ("noise_bias_min", self.noise_bias_min),
            ("noise_bias_max", self.noise_bias_max),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{label} must be a probability, got {p}"));
            }
        }
        if self.noise_fraction + LOOP_FRACTION > 1.0 {
            return Err("noise_fraction + LOOP_FRACTION exceeds 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        assert_eq!(WorkloadSpec::new("x", 1).validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let s = WorkloadSpec::new("y", 2)
            .with_request_types(512)
            .with_handlers(16)
            .with_session_stay(0.5)
            .with_h2p_per_handler(3)
            .with_branches_per_handler(30)
            .with_noise(0.2, 0.8, 0.95);
        assert_eq!(s.request_types, 512);
        assert_eq!(s.handlers, 16);
        assert_eq!(s.h2p_per_handler, 3);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_probabilities() {
        let mut s = WorkloadSpec::new("z", 3);
        s.session_stay = 1.5;
        assert!(s.validate().unwrap_err().contains("session_stay"));
        let base = WorkloadSpec::new("z", 3);
        for bad in [-0.1, 1.1, f64::NAN] {
            let s = base.clone().with_noise(bad, 0.9, 0.98);
            assert!(s.validate().unwrap_err().contains("noise_fraction must"));
            let s = base.clone().with_noise(0.08, bad, 0.98);
            assert!(s.validate().unwrap_err().contains("noise_bias_min must"));
            let s = base.clone().with_noise(0.08, 0.9, bad);
            assert!(s.validate().unwrap_err().contains("noise_bias_max must"));
        }
        // Each share is a probability, but noisy and loop sites together
        // would exceed every site.
        let s = base.with_noise(1.0 - LOOP_FRACTION / 2.0, 0.9, 0.98);
        assert!(s.validate().unwrap_err().contains("LOOP_FRACTION"));
    }

    #[test]
    fn validation_catches_shape_errors() {
        let mut s = WorkloadSpec::new("z", 3);
        s.handlers = 0;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::new("z", 3);
        s.handlers = s.request_types + 1;
        assert_eq!(
            s.validate(),
            Err("handlers must be in 1..=request_types".into())
        );
        let mut s = WorkloadSpec::new("z", 3);
        s.branches_per_handler = 0;
        assert_eq!(
            s.validate(),
            Err("branches_per_handler must be positive".into())
        );
        let mut s = WorkloadSpec::new("z", 3);
        s.h2p_per_handler = s.branches_per_handler + 1;
        assert!(s.validate().is_err());
    }
}
