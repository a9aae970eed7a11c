//! Configuration for ITER, RSS, CliqueRank, and the fusion loop.
//!
//! Defaults are the paper's universal settings (§VII-C): `α = 20`,
//! `S = 20`, `η = 0.98`, five reinforcement rounds — used unchanged for
//! all three benchmark datasets, which is the framework's headline
//! usability claim.

/// Default worker-thread count for the parallel hot paths: the machine's
/// available parallelism (1 when it cannot be determined). Every parallel
/// phase is deterministic, so this only affects speed, never results.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Normalization applied to term weights after each ITER iteration
/// (Algorithm 1, line 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// `x ← 1 / (1 + 1/x)` — the paper's default, mapping `(0, ∞)` to
    /// `(0, 1)` monotonically.
    #[default]
    Reciprocal,
    /// L2 normalization `Σ x² = 1` — the alternative the paper mentions.
    L2,
}

/// ITER parameters. The paper stresses ITER itself "does not involve any
/// parameter that requires tuning"; these only control convergence
/// detection and the random initialization.
#[derive(Debug, Clone, Copy)]
pub struct IterConfig {
    /// Stop when the L1 change of the term-weight vector drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Term-weight normalization variant.
    pub normalization: Normalization,
    /// Seed for the random initialization of `x_t` (Algorithm 1, line 1).
    pub seed: u64,
}

impl Default for IterConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-6,
            max_iterations: 100,
            normalization: Normalization::Reciprocal,
            seed: 0x1753,
        }
    }
}

/// How the `(1 + b)^α` bonus of Eq. 12 enters the transition model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoostMode {
    /// CliqueRank: average the boosted transition probability over
    /// `b ~ U(0, 1)` by midpoint quadrature with this many points.
    /// RSS samples `b` afresh each step, so this is the deterministic
    /// expectation of what RSS does (DESIGN.md §3.3).
    Expected { quadrature_points: usize },
    /// Use one fixed `b` (e.g. `0.5`). `Fixed(0.0)` keeps the bonus form
    /// but with no boost beyond the plain weight.
    Fixed(f64),
    /// Disable the bonus entirely — the ablation for the paper's
    /// big-clique argument (§VI-B).
    Off,
}

impl Default for BoostMode {
    fn default() -> Self {
        BoostMode::Expected {
            quadrature_points: 8,
        }
    }
}

/// RSS parameters (§VI-B, Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct RssConfig {
    /// Non-linear transition exponent α (Eq. 11). Paper: 20.
    pub alpha: f64,
    /// Maximum walk length S. Paper: 20.
    pub steps: usize,
    /// Walks per edge, M (half from each endpoint). Paper leaves M
    /// unspecified; 100 gives ±0.05 standard error near p = 0.5.
    pub walks_per_edge: usize,
    /// RNG seed.
    pub seed: u64,
    /// Apply the `(1 + b)` bonus toward the target (Algorithm 3 line 4).
    pub boost: bool,
    /// Apply the early-stop rule (Algorithm 3 lines 8–9).
    pub early_stop: bool,
}

impl Default for RssConfig {
    fn default() -> Self {
        Self {
            alpha: 20.0,
            steps: 20,
            walks_per_edge: 100,
            seed: 0x2087,
            boost: true,
            early_stop: true,
        }
    }
}

/// Which matrix recurrence CliqueRank uses to turn the rectified random
/// walk into reach probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recurrence {
    /// The paper's literal Eq. 15: `M¹ = Mb`, `M^k = Mt × (M^{k−1} ⊙ Mn)`,
    /// `p = Σ_k (M^k[i,j] + M^k[j,i]) / 2`, clamped to `[0, 1]`. Applies
    /// the boost only at the step entering the target and uses the
    /// unboosted `Mt` elsewhere, so per-direction sums over-count — which
    /// is precisely what lets every pair of a large heterogeneous clique
    /// accumulate probability ≈ 1 within S steps (the Paper benchmark's
    /// 192-record entity). The cost is saturation on weak-but-mutual
    /// pairs, bounded in practice by the shared-term admission rule.
    /// This is the default because it is what the paper specifies and
    /// what reproduces its Table II behaviour.
    #[default]
    PaperEq15,
    /// Target-directed first-passage probabilities:
    /// `G¹ = H`, `G^k = H + C ⊙ (Mt × (G^{k−1} ⊙ Mn))`, where `H[v,j]` is
    /// the boosted probability of stepping straight to target `j` and
    /// `C[v,j]` the complementary continuation scale. This is the exact
    /// matrix transcription of RSS's walk (per-step boost suppresses
    /// non-target transitions too) and guarantees per-direction
    /// probabilities ≤ 1; it matches RSS within sampling error but is
    /// more conservative than Eq. 15 inside large heterogeneous cliques
    /// (see the `ablation_recurrence` bench).
    FirstPassage,
}

/// CliqueRank parameters (§VI-C).
#[derive(Debug, Clone, Copy)]
pub struct CliqueRankConfig {
    /// Non-linear transition exponent α (Eq. 11). Paper: 20. Must lie in
    /// `(0, 1024)`, where the `(1 + b)^α` bonus stays finite.
    pub alpha: f64,
    /// Number of walk steps S (the recurrence runs S − 1 products).
    /// Paper: 20.
    pub steps: usize,
    /// Bonus treatment for `Mb` (Eq. 12).
    pub boost: BoostMode,
    /// Apply the `⊙ Mn` neighbor mask (the matrix form of early stop).
    pub neighbor_mask: bool,
    /// Clamp the reach probability to `[0, 1]`. Only relevant for
    /// [`Recurrence::PaperEq15`], whose per-step sums can exceed 1;
    /// first-passage probabilities are ≤ 1 by construction.
    pub clamp: bool,
    /// The recurrence variant (see [`Recurrence`]).
    pub recurrence: Recurrence,
    /// Compute kernel per connected component (see [`Kernel`]).
    pub kernel: Kernel,
}

/// How a component's recurrence multiplies by `Mt`.
///
/// Both kernels run one recurrence over the component's edge set and
/// stop early once a step changes nothing. With the neighbor mask on,
/// every matrix in it is edge-supported (`⊙ Mn` zeroes all other
/// entries), so for a directed edge `(i→j)`,
/// `(Mt × masked)[i,j] = Σ_{v ∈ N(i) ∩ N(j)} Mt[i,v] · masked[v,j]` can
/// be computed as a column gather at `Σ_i deg(i)²` multiply-adds per
/// step instead of `O(n³)`. Exact, not an approximation; on the sparse
/// Restaurant graph it is orders of magnitude faster, while the packed
/// GEMM wins on near-clique components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Pick per component by estimated cost (default).
    #[default]
    Auto,
    /// Always use the packed dense matrix product.
    Dense,
    /// Always use the edgewise sparse recursion (requires the neighbor
    /// mask; falls back to dense when the mask is disabled).
    Sparse,
}

impl Default for CliqueRankConfig {
    fn default() -> Self {
        Self {
            alpha: 20.0,
            steps: 20,
            boost: BoostMode::default(),
            neighbor_mask: true,
            clamp: true,
            recurrence: Recurrence::default(),
            kernel: Kernel::default(),
        }
    }
}

impl CliqueRankConfig {
    /// Checks the bounds [`crate::run_cliquerank`] asserts: `α` in
    /// `(0, 1024)` and at least one step.
    pub fn validate(&self) -> Result<(), String> {
        // Below 2^10, (1 + b)^α is finite for every b ∈ [0, 1] and no
        // row's largest weight (1/2)^α underflows.
        if !(self.alpha > 0.0 && self.alpha < 1024.0) {
            return Err(format!("alpha must lie in (0, 1024), got {}", self.alpha));
        }
        if self.steps < 1 {
            return Err("need at least one step".to_owned());
        }
        Ok(())
    }
}

/// Fusion-loop parameters (§IV, §VII-C).
#[derive(Debug, Clone)]
pub struct FusionConfig {
    /// ITER settings.
    pub iter: IterConfig,
    /// CliqueRank settings.
    pub cliquerank: CliqueRankConfig,
    /// Reinforcement rounds R (one round = ITER then CliqueRank).
    /// Paper: 5 (Table V).
    pub rounds: usize,
    /// Matching-probability threshold η. Paper: 0.98.
    pub eta: f64,
    /// Minimum number of shared terms for a pair to become a
    /// record-graph edge.
    ///
    /// The paper's `Gr` construction ("two records are connected only if
    /// they share at least one term") leaves unstated how pairs whose
    /// *only* connection is one weak common term avoid saturating the
    /// scale-invariant random walk (two records that are each other's
    /// only/best neighbor reach each other with probability ≈ 1 no
    /// matter how weak the edge — the corner case §VI-B mentions).
    /// Requiring two shared terms implements the paper's own
    /// characterization of matching pairs ("share a considerable number
    /// of discriminative terms") structurally, so it is stable across
    /// reinforcement rounds. Set to `1` to reproduce the raw
    /// construction (see the ablation benches and DESIGN.md §6).
    pub min_shared_terms: usize,
    /// Optional absolute ITER-similarity floor for record-graph edges
    /// (`0.0` disables). Unlike [`Self::min_shared_terms`] this is not
    /// scale-invariant across reinforcement rounds; it exists for
    /// ablation experiments.
    pub min_similarity: f64,
    /// Record each round's probability vector (needed by the Table V
    /// bench; costs `rounds × pairs` floats).
    pub record_round_probabilities: bool,
    /// Worker threads for the shared pipeline pool. [`crate::Resolver`]
    /// creates one pool of this size per `resolve` call and threads it
    /// through every phase (ITER, CliqueRank, graph construction). All
    /// phases are deterministic, so this knob affects speed only.
    /// Defaults to the machine's available parallelism.
    pub threads: usize,
    /// Serial/parallel cutover for the shared pool: regions whose
    /// estimated work falls below `dispatch.serial_below` elementary
    /// operations run inline on the caller thread with zero pool
    /// coordination. Defaults to [`er_pool::DispatchPolicy::from_env`],
    /// so `ER_DISPATCH=serial|parallel|<ops>` overrides it without code
    /// changes. Dispatch affects scheduling only — results are
    /// bit-identical on either side of the cutover.
    pub dispatch: er_pool::DispatchPolicy,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self {
            iter: IterConfig::default(),
            cliquerank: CliqueRankConfig::default(),
            rounds: 5,
            eta: 0.98,
            min_shared_terms: 2,
            min_similarity: 0.0,
            record_round_probabilities: false,
            threads: default_threads(),
            dispatch: er_pool::DispatchPolicy::from_env(),
        }
    }
}

impl FusionConfig {
    /// Checks the bounds [`crate::Resolver`] asserts: those of
    /// [`CliqueRankConfig::validate`], at least one round and `η` in
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        self.cliquerank.validate()?;
        if self.rounds < 1 {
            return Err("need at least one fusion round".to_owned());
        }
        if !(0.0..=1.0).contains(&self.eta) {
            return Err(format!("eta must be a probability, got {}", self.eta));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let f = FusionConfig::default();
        assert_eq!(f.rounds, 5);
        assert!((f.eta - 0.98).abs() < 1e-12);
        assert_eq!(f.cliquerank.steps, 20);
        assert_eq!(f.cliquerank.alpha, 20.0);
        let r = RssConfig::default();
        assert_eq!(r.alpha, 20.0);
        assert_eq!(r.steps, 20);
    }

    #[test]
    fn boost_default_is_expected_quadrature() {
        match BoostMode::default() {
            BoostMode::Expected { quadrature_points } => assert!(quadrature_points >= 4),
            other => panic!("unexpected default {other:?}"),
        }
    }
}
