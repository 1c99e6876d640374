//! The run-config digest the multi-process deployment's TCP handshake
//! verifies.
//!
//! A FedOMD federation only produces meaningful numbers when every
//! process — the server and each client — agrees on the dataset, the cut,
//! the model shape, and the objective. In the in-process simulator that
//! agreement is structural (one `RunConfig` drives everything); across
//! processes it has to be *checked*, so each client sends
//! [`run_config_digest`] in its handshake and the server refuses peers
//! whose digest differs.

use fedomd_federated::{FedOmdConfig, TrainConfig};

/// FNV-1a 64-bit digest over every configuration field that must agree
/// between the server and a client for their runs to be mathematically
/// consistent: dataset, party count, seed, model shape, optimiser
/// schedule, and the FedOMD objective.
///
/// `rounds` and `patience` are deliberately **excluded**: the round budget
/// and early stopping are driven by the server's verdicts, so a client may
/// legitimately run with a different cap (e.g. a deployment that leaves
/// the federation early).
pub fn run_config_digest(
    cfg: &TrainConfig,
    omd: &FedOmdConfig,
    dataset: &str,
    parties: usize,
) -> u64 {
    let mut h = Fnv1a::new();
    h.str(dataset);
    h.u64(parties as u64);
    h.u64(cfg.seed);
    h.u64(cfg.hidden_dim as u64);
    h.u64(cfg.local_epochs as u64);
    h.u64(cfg.eval_every as u64);
    h.u32(cfg.lr.to_bits());
    h.u32(cfg.weight_decay.to_bits());
    h.u32(omd.alpha.to_bits());
    h.u32(omd.beta.to_bits());
    h.u32(omd.width.to_bits());
    h.u32(omd.max_moment);
    h.u64(omd.hidden_layers as u64);
    h.u8(omd.use_ortho as u8);
    h.u8(omd.use_cmd as u8);
    h.u32(omd.cmd_mean_scale.to_bits());
    h.u8(omd.cmd_first_layer_only as u8);
    // Cohort sampling changes which clients the server awaits per round;
    // a client that disagrees would stall on rounds it was sampled out of.
    h.u64(cfg.cohort.sample_frac.to_bits());
    h.u64(cfg.cohort.min_cohort as u64);
    h.u64(cfg.cohort.seed);
    h.finish()
}

/// FNV-1a 64: tiny, dependency-free, stable across platforms.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.u8(b);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let cfg = TrainConfig::mini(0);
        let omd = FedOmdConfig::paper();
        let base = run_config_digest(&cfg, &omd, "cora_mini", 3);
        assert_eq!(base, run_config_digest(&cfg, &omd, "cora_mini", 3));

        // Any field that changes the math must change the digest.
        let mut other = cfg.clone();
        other.seed = 1;
        assert_ne!(base, run_config_digest(&other, &omd, "cora_mini", 3));
        let mut other = cfg.clone();
        other.hidden_dim += 1;
        assert_ne!(base, run_config_digest(&other, &omd, "cora_mini", 3));
        let mut other = cfg.clone();
        other.cohort = fedomd_federated::CohortConfig::fraction(0.5, 2);
        assert_ne!(base, run_config_digest(&other, &omd, "cora_mini", 3));
        let other = FedOmdConfig {
            beta: 2.0,
            ..FedOmdConfig::paper()
        };
        assert_ne!(base, run_config_digest(&cfg, &other, "cora_mini", 3));
        assert_ne!(base, run_config_digest(&cfg, &omd, "citeseer_mini", 3));
        assert_ne!(base, run_config_digest(&cfg, &omd, "cora_mini", 4));
    }

    #[test]
    fn digest_ignores_the_round_budget() {
        // Rounds/patience are server-driven: a client with a shorter cap
        // (it plans to leave early) must still be admitted.
        let cfg = TrainConfig::mini(0);
        let omd = FedOmdConfig::paper();
        let mut short = cfg.clone();
        short.rounds = 3;
        short.patience = 1;
        assert_eq!(
            run_config_digest(&cfg, &omd, "cora_mini", 3),
            run_config_digest(&short, &omd, "cora_mini", 3)
        );
    }
}
