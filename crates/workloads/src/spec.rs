//! Workload specification: every knob of the synthetic server.

/// Parameters of a synthetic server workload.
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
/// assert_eq!(spec.types_per_handler(), 8);
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
    /// Number of shared utility leaf functions.
    pub leaves: usize,
    /// Probability a handler site is preceded by a call to a leaf.
    pub leaf_call_prob: f64,
    /// The leaf chosen at a site depends on `r % leaf_select_mod`, injecting
    /// request-type bits into the unconditional-branch stream (and thus into
    /// LLBP's contexts).
    pub leaf_select_mod: usize,
    /// Probability of an unconditional jump after a handler site.
    pub jump_prob: f64,

    // Behaviour mix -------------------------------------------------------
    /// Fraction of handler sites with noisy-biased outcomes.
    pub noise_fraction: f64,
    /// Taken-probability bounds for noisy sites (direction randomized).
    pub noise_bias_min: f64,
    /// Upper bound of the noisy bias.
    pub noise_bias_max: f64,
    /// Fraction of handler sites that are loops.
    pub loop_fraction: f64,
    /// Loop trip counts are `1 + hash(...) % max_trip` (per request type).
    pub max_trip: u16,
    /// Phase modulus for request-type-determined sites: outcomes cycle
    /// through `phases` variants per `(site, type)`.
    pub phases: u8,
    /// Handler sites (at the end of each body) whose outcome additionally
    /// depends on the *previous* request's type — the H2P branches.
    pub h2p_per_handler: usize,

    // Request process -----------------------------------------------------
    /// Zipf exponent of type popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Probability the next request keeps the current type (session burst).
    pub session_stay: f64,
    /// Size of the recently-seen-type working set.
    pub working_set: usize,
    /// Probability (given no stay) of redrawing from the working set.
    pub local_prob: f64,

    // Misc ----------------------------------------------------------------
    /// Conditional dispatch branches encoding the request type.
    pub dispatch_bits: u32,
    /// Minimum non-branch instructions between branches.
    pub gap_min: u32,
    /// Maximum non-branch instructions between branches.
    pub gap_max: u32,
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
            leaves: 48,
            leaf_call_prob: 0.35,
            leaf_select_mod: 8,
            jump_prob: 0.25,
            noise_fraction: 0.08,
            noise_bias_min: 0.90,
            noise_bias_max: 0.98,
            loop_fraction: 0.10,
            max_trip: 6,
            phases: 1,
            h2p_per_handler: 2,
            zipf_exponent: 0.9,
            session_stay: 0.85,
            working_set: 8,
            local_prob: 0.5,
            dispatch_bits: 6,
            gap_min: 2,
            gap_max: 10,
        }
    }

    /// Distinct request types handled by one handler function.
    pub fn types_per_handler(&self) -> usize {
        self.request_types.div_ceil(self.handlers)
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
        if self.leaves == 0 || self.leaf_select_mod == 0 {
            return Err("leaves and leaf_select_mod must be positive".into());
        }
        if self.phases == 0 || self.max_trip == 0 {
            return Err("phases and max_trip must be positive".into());
        }
        if self.gap_min > self.gap_max {
            return Err("gap_min exceeds gap_max".into());
        }
        for (label, p) in [
            ("leaf_call_prob", self.leaf_call_prob),
            ("jump_prob", self.jump_prob),
            ("noise_fraction", self.noise_fraction),
            ("loop_fraction", self.loop_fraction),
            ("session_stay", self.session_stay),
            ("local_prob", self.local_prob),
            ("noise_bias_min", self.noise_bias_min),
            ("noise_bias_max", self.noise_bias_max),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{label} must be a probability, got {p}"));
            }
        }
        if self.noise_fraction + self.loop_fraction > 1.0 {
            return Err("noise_fraction + loop_fraction exceeds 1".into());
        }
        if self.working_set == 0 {
            return Err("working_set must be positive".into());
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
        assert_eq!(s.types_per_handler(), 32);
        assert_eq!(s.h2p_per_handler, 3);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_probabilities() {
        let mut s = WorkloadSpec::new("z", 3);
        s.session_stay = 1.5;
        assert!(s.validate().unwrap_err().contains("session_stay"));
    }

    #[test]
    fn validation_catches_shape_errors() {
        let mut s = WorkloadSpec::new("z", 3);
        s.handlers = 0;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::new("z", 3);
        s.h2p_per_handler = s.branches_per_handler + 1;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::new("z", 3);
        s.gap_min = 20;
        s.gap_max = 10;
        assert!(s.validate().is_err());
    }

    #[test]
    fn types_per_handler_rounds_up() {
        let s = WorkloadSpec::new("w", 1)
            .with_request_types(100)
            .with_handlers(16);
        assert_eq!(s.types_per_handler(), 7);
    }
}
