//! Critical simplices (Definition 7), their members and views, and the
//! concurrency map (Definition 8) — Figures 5 and 6 of the paper.
//!
//! A critical simplex of `Chr s` is a set of processes sharing the same
//! first-round view whose disappearance would strictly lower the agreement
//! power of that view: it "witnesses" a level of agreement power. Critical
//! simplices drive both the waiting discipline of Algorithm 1 and the
//! definition of the affine task `R_A`.

use std::collections::HashMap;

use act_adversary::AgreementFunction;
use act_topology::{ColorSet, Complex, Simplex};

/// Derived critical-simplex data of one simplex of `Chr s`, produced by
/// [`CriticalAnalysis::analyze`].
#[derive(Clone, Debug)]
pub struct CriticalInfo {
    /// `CS_α(σ)`: the critical sub-simplices of `σ`.
    pub critical: Vec<Simplex>,
    /// `CSM_α(σ)`: the vertices of `σ` belonging to some critical simplex,
    /// as a simplex.
    pub members: Simplex,
    /// `χ(CSM_α(σ))`: the colors of the members.
    pub member_colors: ColorSet,
    /// `χ(CSV_α(σ))`: the colors of the carrier (in `s`) of the members —
    /// the processes observed by `σ`'s critical simplices in their `View1`.
    pub view_colors: ColorSet,
    /// `Conc_α(σ)`: the concurrency level (Definition 8).
    pub concurrency: usize,
}

/// Evaluator of Definitions 7 and 8 over a fixed level-1 complex (`Chr` of
/// the standard simplex) and agreement function, with memoization.
///
/// The memo cache is private to the instance, so no locking is needed on
/// the hot path; the type is `Send` (asserted by a test). Compiling `R_A`
/// does not go through it: the skeleton's table (`skeleton.rs`) evaluates
/// the same definitions per dense carrier id through
/// `CriticalCandidates`.
///
/// # Examples
///
/// ```
/// use act_adversary::AgreementFunction;
/// use act_affine::CriticalAnalysis;
/// use act_topology::Complex;
///
/// let chr = Complex::standard(3).chromatic_subdivision();
/// let alpha = AgreementFunction::k_concurrency(3, 1);
/// let mut crit = CriticalAnalysis::new(&chr, &alpha);
/// // The synchronous facet (all carriers full) is critical for 1-OF.
/// let sync = chr.facets().iter()
///     .find(|f| f.vertices().iter().all(|&v| chr.base_colors_of_vertex(v).len() == 3))
///     .unwrap()
///     .clone();
/// assert!(crit.is_critical(&sync));
/// ```
pub struct CriticalAnalysis<'a> {
    chr: &'a Complex,
    alpha: &'a AgreementFunction,
    cache: HashMap<Simplex, CriticalInfo>,
}

impl<'a> CriticalAnalysis<'a> {
    /// Creates an analysis over a level-1 complex (a subdivision of the
    /// standard simplex) and an agreement function.
    ///
    /// # Panics
    ///
    /// Panics if `chr` is a base complex (level 0) or the process counts
    /// disagree.
    pub fn new(chr: &'a Complex, alpha: &'a AgreementFunction) -> Self {
        assert!(chr.level() >= 1, "critical simplices live in a subdivision");
        assert_eq!(
            chr.num_processes(),
            alpha.num_processes(),
            "complex and agreement function sizes differ"
        );
        CriticalAnalysis {
            chr,
            alpha,
            cache: HashMap::new(),
        }
    }

    /// The agreement function in use.
    pub fn alpha(&self) -> &AgreementFunction {
        self.alpha
    }

    /// Whether `σ` is a critical simplex (Definition 7): all its vertices
    /// share the carrier of `σ`, and removing `χ(σ)` from that carrier's
    /// colors strictly lowers the agreement power.
    pub fn is_critical(&self, sigma: &Simplex) -> bool {
        shared_carrier_colors(self.chr, sigma).is_some_and(|carrier_colors| {
            lowers_power(self.alpha, carrier_colors, self.chr.colors(sigma))
        })
    }

    /// Full critical analysis of `σ` (memoized): `CS_α`, `CSM_α`, `CSV_α`
    /// and `Conc_α`.
    pub fn analyze(&mut self, sigma: &Simplex) -> &CriticalInfo {
        if !self.cache.contains_key(sigma) {
            let mut critical = Vec::new();
            let mut members = Simplex::empty();
            let mut concurrency = 0usize;
            for face in sigma.non_empty_faces() {
                if self.is_critical(&face) {
                    members = members.union(&face);
                    let power = self.alpha.alpha(self.chr.carrier_colors(&face));
                    concurrency = concurrency.max(power);
                    critical.push(face);
                }
            }
            let member_colors = self.chr.colors(&members);
            let view_colors = self.chr.carrier_colors(&members);
            let info = CriticalInfo {
                critical,
                members,
                member_colors,
                view_colors,
                concurrency,
            };
            self.cache.insert(sigma.clone(), info);
        }
        &self.cache[sigma]
    }

    /// `Conc_α(σ)` (Definition 8).
    pub fn concurrency(&mut self, sigma: &Simplex) -> usize {
        self.analyze(sigma).concurrency
    }

    /// `χ(CSM_α(σ))`.
    pub fn member_colors(&mut self, sigma: &Simplex) -> ColorSet {
        self.analyze(sigma).member_colors
    }

    /// `χ(CSV_α(σ))`.
    pub fn view_colors(&mut self, sigma: &Simplex) -> ColorSet {
        self.analyze(sigma).view_colors
    }

    /// The critical simplices of `σ` whose carrier has agreement power
    /// `≥ level`, used by the distribution lemma (Lemma 3).
    pub fn critical_at_least(&mut self, sigma: &Simplex, level: usize) -> Vec<Simplex> {
        let alpha = self.alpha;
        let chr = self.chr;
        self.analyze(sigma)
            .critical
            .iter()
            .filter(|t| alpha.alpha(chr.carrier_colors(t)) >= level)
            .cloned()
            .collect()
    }
}

/// The carrier colors of `σ` if every vertex of `σ` has them as its own
/// base colors (the α-independent clause of Definition 7); `None` for the
/// empty simplex and for simplices whose vertices saw different views.
fn shared_carrier_colors(chr: &Complex, sigma: &Simplex) -> Option<ColorSet> {
    let carrier_colors = chr.carrier_colors(sigma);
    let shared = !sigma.is_empty()
        && sigma
            .vertices()
            .iter()
            .all(|&v| chr.base_colors_of_vertex(v) == carrier_colors);
    shared.then_some(carrier_colors)
}

/// The α clause of Definition 7: removing `chi` from the view
/// `carrier_colors` strictly lowers the agreement power.
fn lowers_power(alpha: &AgreementFunction, carrier_colors: ColorSet, chi: ColorSet) -> bool {
    alpha.alpha(carrier_colors.minus(chi)) < alpha.alpha(carrier_colors)
}

/// The α-independent half of [`CriticalAnalysis::analyze`] for one
/// simplex `σ` of `Chr s`: the colors and carrier colors of each face of
/// `σ` that passes [`shared_carrier_colors`], the only faces Definition 7
/// can call critical. [`CriticalCandidates::summarize`] then evaluates
/// Definitions 7 and 8 for any `α` with table lookups alone.
#[derive(Clone, Debug)]
pub(crate) struct CriticalCandidates(Vec<(ColorSet, ColorSet)>);

/// `χ(CSM_α(σ))`, `χ(CSV_α(σ))` and `Conc_α(σ)`: the parts of
/// [`CriticalInfo`] Definition 9 reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CriticalSummary {
    pub(crate) member_colors: ColorSet,
    pub(crate) view_colors: ColorSet,
    pub(crate) concurrency: usize,
}

impl CriticalCandidates {
    pub(crate) fn of(chr: &Complex, sigma: &Simplex) -> CriticalCandidates {
        CriticalCandidates(
            sigma
                .non_empty_faces()
                .filter_map(|face| {
                    shared_carrier_colors(chr, &face).map(|cc| (chr.colors(&face), cc))
                })
                .collect(),
        )
    }

    /// Equal to the corresponding fields of [`CriticalAnalysis::analyze`]:
    /// the members are the union of the critical faces, so their colors
    /// and carrier colors are the unions of the faces' own.
    pub(crate) fn summarize(&self, alpha: &AgreementFunction) -> CriticalSummary {
        let mut out = CriticalSummary {
            member_colors: ColorSet::EMPTY,
            view_colors: ColorSet::EMPTY,
            concurrency: 0,
        };
        for &(chi, carrier_colors) in &self.0 {
            if lowers_power(alpha, carrier_colors, chi) {
                out.member_colors = out.member_colors.union(chi);
                out.view_colors = out.view_colors.union(carrier_colors);
                out.concurrency = out.concurrency.max(alpha.alpha(carrier_colors));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_adversary::{zoo, Adversary};

    fn chr3() -> Complex {
        Complex::standard(3).chromatic_subdivision()
    }

    #[test]
    fn one_of_critical_simplices_are_synchronous_blocks() {
        // Figure 5a: for α(P) = min(|P|, 1), σ is critical iff
        // χ(σ) = χ(carrier(σ, s)) and all vertices share that carrier:
        // the "synchronous block on its whole carrier" simplices.
        let chr = chr3();
        let alpha = AgreementFunction::k_concurrency(3, 1);
        let crit = CriticalAnalysis::new(&chr, &alpha);
        let mut count = 0;
        for facet in chr.facets() {
            for face in facet.non_empty_faces() {
                let expected = face
                    .vertices()
                    .iter()
                    .all(|&v| chr.base_colors_of_vertex(v) == chr.carrier_colors(&face))
                    && chr.colors(&face) == chr.carrier_colors(&face);
                assert_eq!(crit.is_critical(&face), expected, "{face:?}");
                if expected {
                    count += 1;
                }
            }
        }
        // Distinct critical simplices: the central simplex of Chr(t) for
        // every non-empty face t of s — but counted here once per facet
        // containing them; at least the 7 distinct ones exist.
        assert!(count >= 7);
    }

    #[test]
    fn distinct_one_of_critical_simplices() {
        // Count *distinct* critical simplices for 1-OF: exactly one per
        // non-empty face of s (its synchronous/central simplex): 7 for n=3.
        let chr = chr3();
        let alpha = AgreementFunction::k_concurrency(3, 1);
        let crit = CriticalAnalysis::new(&chr, &alpha);
        let mut distinct = std::collections::BTreeSet::new();
        for facet in chr.facets() {
            for face in facet.non_empty_faces() {
                if crit.is_critical(&face) {
                    distinct.insert(face);
                }
            }
        }
        assert_eq!(distinct.len(), 7);
    }

    #[test]
    fn figure_5b_critical_simplices() {
        // The adversary {p2}, {p1,p3} + supersets (Figure 5b).
        let chr = chr3();
        let a = zoo::figure_5b_adversary();
        let alpha = AgreementFunction::of_adversary(&a);
        let crit = CriticalAnalysis::new(&chr, &alpha);
        // p2 running solo is critical: carrier {p2}, α({p2}) = 1 > α(∅).
        let solo_p2 = chr
            .facets()
            .iter()
            .flat_map(|f| f.non_empty_faces())
            .find(|f| {
                f.len() == 1
                    && chr.colors(f) == ColorSet::from_indices([1])
                    && chr.carrier_colors(f) == ColorSet::from_indices([1])
            })
            .unwrap();
        assert!(crit.is_critical(&solo_p2));
        // p1 running solo is NOT critical: α({p1}) = 0.
        let solo_p1 = chr
            .facets()
            .iter()
            .flat_map(|f| f.non_empty_faces())
            .find(|f| {
                f.len() == 1
                    && chr.colors(f) == ColorSet::from_indices([0])
                    && chr.carrier_colors(f) == ColorSet::from_indices([0])
            })
            .unwrap();
        assert!(!crit.is_critical(&solo_p1));
    }

    #[test]
    fn lemma_11_same_power_implies_same_view() {
        // ∀σ ∈ Chr s, two critical simplices of σ with equal agreement
        // power share their carrier (first-round view).
        let chr = chr3();
        let models: Vec<AgreementFunction> = vec![
            AgreementFunction::k_concurrency(3, 1),
            AgreementFunction::k_concurrency(3, 2),
            AgreementFunction::of_adversary(&zoo::figure_5b_adversary()),
            AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1)),
            AgreementFunction::of_adversary(&Adversary::wait_free(3)),
        ];
        for alpha in &models {
            let mut crit = CriticalAnalysis::new(&chr, alpha);
            for facet in chr.facets() {
                let info = crit.analyze(facet).clone();
                for t1 in &info.critical {
                    for t2 in &info.critical {
                        let p1 = alpha.alpha(chr.carrier_colors(t1));
                        let p2 = alpha.alpha(chr.carrier_colors(t2));
                        if p1 == p2 {
                            assert_eq!(
                                chr.carrier_colors(t1),
                                chr.carrier_colors(t2),
                                "Lemma 11 violated"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn concurrency_map_for_one_of() {
        // Figure 6a: every simplex of Chr s containing a critical simplex
        // has concurrency 1, the others 0.
        let chr = chr3();
        let alpha = AgreementFunction::k_concurrency(3, 1);
        let mut crit = CriticalAnalysis::new(&chr, &alpha);
        for facet in chr.facets() {
            for face in facet.non_empty_faces() {
                let c = crit.concurrency(&face);
                let has_critical = !crit.analyze(&face).critical.is_empty();
                assert_eq!(c, usize::from(has_critical));
            }
        }
    }

    #[test]
    fn concurrency_map_for_figure_5b() {
        // Figure 6b: concurrency levels 0, 1, 2 all occur.
        let chr = chr3();
        let alpha = AgreementFunction::of_adversary(&zoo::figure_5b_adversary());
        let mut crit = CriticalAnalysis::new(&chr, &alpha);
        let mut seen = std::collections::BTreeSet::new();
        for facet in chr.facets() {
            for face in facet.non_empty_faces() {
                seen.insert(crit.concurrency(&face));
            }
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn candidate_summaries_match_the_memoized_analysis() {
        let chr = chr3();
        let models: Vec<AgreementFunction> = vec![
            AgreementFunction::k_concurrency(3, 1),
            AgreementFunction::k_concurrency(3, 2),
            AgreementFunction::of_adversary(&zoo::figure_5b_adversary()),
            AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1)),
            AgreementFunction::of_adversary(&Adversary::wait_free(3)),
        ];
        for alpha in &models {
            let mut crit = CriticalAnalysis::new(&chr, alpha);
            for facet in chr.facets() {
                for face in facet.faces() {
                    let info = crit.analyze(&face).clone();
                    let summary = CriticalCandidates::of(&chr, &face).summarize(alpha);
                    assert_eq!(summary.member_colors, info.member_colors, "{face:?}");
                    assert_eq!(summary.view_colors, info.view_colors, "{face:?}");
                    assert_eq!(summary.concurrency, info.concurrency, "{face:?}");
                }
            }
        }
    }

    #[test]
    fn critical_analysis_is_send() {
        // Callers may move instances into worker threads; keep the type
        // Send.
        fn assert_send<T: Send>() {}
        assert_send::<CriticalAnalysis<'_>>();
    }

    #[test]
    fn empty_simplex_is_not_critical() {
        let chr = chr3();
        let alpha = AgreementFunction::k_concurrency(3, 1);
        let crit = CriticalAnalysis::new(&chr, &alpha);
        assert!(!crit.is_critical(&Simplex::empty()));
    }

    #[test]
    fn members_and_views_are_consistent() {
        let chr = chr3();
        let alpha = AgreementFunction::of_adversary(&zoo::figure_5b_adversary());
        let mut crit = CriticalAnalysis::new(&chr, &alpha);
        for facet in chr.facets() {
            let info = crit.analyze(facet).clone();
            // Members are exactly the union of critical simplices' vertices.
            let mut expect = Simplex::empty();
            for t in &info.critical {
                expect = expect.union(t);
            }
            assert_eq!(info.members, expect);
            assert_eq!(info.member_colors, chr.colors(&info.members));
            assert!(info.member_colors.is_subset_of(info.view_colors) || info.members.is_empty());
        }
    }
}
