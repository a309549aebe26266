//! CACTI-like access-energy model (Fig. 15b stand-in).
//!
//! The paper models each structure with CACTI 7.0 at 22 nm and weights
//! access energies by access frequency (§VII-D). CACTI's absolute numbers
//! need the real tool; what Fig. 15b *uses* is that access energy grows
//! monotonically with array capacity and access width. We model
//! `E = e0 + k * sqrt(bytes) * width_factor` per access — a standard
//! analytic fit for SRAM arrays — and apply the paper's exact weighting:
//! PB every prediction, CD and CTT per unconditional branch, pattern store
//! per read/write transaction.

use llbpx::LlbpStats;

/// Energy of a single access to an SRAM-like structure, in arbitrary
/// CACTI-like units (consistent across structures, which is all a
/// relative comparison needs).
pub fn access_energy(capacity_bytes: u64, access_width_bytes: u64) -> f64 {
    0.2 + 0.015 * (capacity_bytes as f64).sqrt() * (1.0 + 0.1 * access_width_bytes as f64)
}

/// The structures of an LLBP/LLBP-X instance, with the paper's geometries.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Pattern-store capacity in bytes (516 KiB baseline).
    pub ps_bytes: u64,
    /// Context-directory capacity in bytes (14 KiB, 8-bit wide).
    pub cd_bytes: u64,
    /// Pattern-buffer capacity in bytes (64 × 36 B).
    pub pb_bytes: u64,
    /// CTT capacity in bytes (9 KiB; 0 for plain LLBP).
    pub ctt_bytes: u64,
}

impl EnergyModel {
    /// Geometry of the paper's LLBP.
    pub fn llbp() -> Self {
        EnergyModel {
            ps_bytes: 516 * 1024,
            cd_bytes: 14 * 1024,
            pb_bytes: 64 * 36,
            ctt_bytes: 0,
        }
    }

    /// Geometry of the paper's LLBP-X (adds the 9 KiB CTT).
    pub fn llbpx() -> Self {
        EnergyModel {
            ctt_bytes: 9 * 1024,
            ..EnergyModel::llbp()
        }
    }

    /// Total access energy of a run, weighted by the recorded access
    /// counts: PB per prediction, CD/CTT per unconditional branch, pattern
    /// store per 36-byte transaction (§VII-D).
    pub fn total(&self, stats: &LlbpStats) -> f64 {
        let (pb, cd, ps, ctt) = self.breakdown(stats);
        pb + cd + ps + ctt
    }

    /// Per-component breakdown `(pb, cd, ps, ctt)` for reporting.
    pub fn breakdown(&self, stats: &LlbpStats) -> (f64, f64, f64, f64) {
        let pb = access_energy(self.pb_bytes, 36) * stats.pb_accesses as f64;
        let cd = access_energy(self.cd_bytes, 1) * stats.cd_accesses as f64;
        let ps = access_energy(self.ps_bytes, 36) * (stats.ps_reads + stats.ps_writes) as f64;
        let ctt = if self.ctt_bytes > 0 {
            access_energy(self.ctt_bytes, 2) * stats.ctt_accesses as f64
        } else {
            0.0
        };
        (pb, cd, ps, ctt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_grows_with_capacity_and_width() {
        assert!(access_energy(512 * 1024, 36) > access_energy(9 * 1024, 36));
        assert!(access_energy(9 * 1024, 36) > access_energy(9 * 1024, 2));
        assert!(access_energy(1, 1) > 0.0);
    }

    #[test]
    fn weighting_follows_access_counts() {
        let model = EnergyModel::llbp();
        let mut stats = LlbpStats {
            pb_accesses: 1000,
            cd_accesses: 100,
            ..Default::default()
        };
        let low = model.total(&stats);
        stats.ps_reads = 50;
        let high = model.total(&stats);
        assert!(high > low, "pattern-store reads must add energy");
    }

    #[test]
    fn ctt_costs_energy_only_in_llbpx() {
        let stats = LlbpStats {
            pb_accesses: 1000,
            cd_accesses: 200,
            ctt_accesses: 200,
            ps_reads: 20,
            ..Default::default()
        };
        let llbp = EnergyModel::llbp().total(&stats);
        let llbpx = EnergyModel::llbpx().total(&stats);
        assert!(llbpx > llbp, "the CTT adds energy");
        // ...but only a few percent, as in Fig. 15b.
        assert!(
            llbpx / llbp < 1.25,
            "CTT overhead should be small, got {}",
            llbpx / llbp
        );
    }

    #[test]
    fn fewer_ps_reads_can_pay_for_the_ctt() {
        // The paper's net result: LLBP-X's reduced pattern-store traffic
        // (~6% fewer reads) roughly offsets the CTT energy.
        let llbp_stats = LlbpStats {
            pb_accesses: 100_000,
            cd_accesses: 20_000,
            ps_reads: 3_000,
            ps_writes: 600,
            ..Default::default()
        };
        let llbpx_stats = LlbpStats {
            ctt_accesses: 20_000,
            ps_reads: 2_800,
            ps_writes: 560,
            ..llbp_stats.clone()
        };
        let base = EnergyModel::llbp().total(&llbp_stats);
        let x = EnergyModel::llbpx().total(&llbpx_stats);
        let ratio = x / base;
        assert!((0.9..1.2).contains(&ratio), "relative energy {ratio}");
    }
}
