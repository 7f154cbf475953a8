//! Estimate types shared by post-stream and in-stream estimation.
//!
//! An [`Estimate`] pairs a Horvitz–Thompson point estimate with its unbiased
//! variance estimate (paper Theorems 3/5). [`TriadEstimates`] bundles the
//! three statistics every experiment reports — triangle count, wedge count,
//! global clustering coefficient — plus the triangle–wedge covariance that
//! feeds the clustering coefficient's delta-method variance (paper Eq. 11).

/// A point estimate together with an estimate of its variance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Horvitz–Thompson point estimate.
    pub value: f64,
    /// Unbiased variance estimate (may be 0 when the sample retained
    /// everything; never negative by paper Theorem 3(ii)).
    pub variance: f64,
}

impl Estimate {
    /// An exact (zero-variance) estimate.
    pub fn exact(value: f64) -> Self {
        Estimate {
            value,
            variance: 0.0,
        }
    }

    /// Standard deviation (`sqrt` of the variance estimate, 0 if the
    /// variance estimate is slightly negative due to float rounding).
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }

    /// Two-sided normal confidence interval `value ± z·σ`. The lower bound
    /// is clamped at 0 since all estimated quantities here are counts or
    /// ratios of counts.
    pub fn ci(&self, z: f64) -> (f64, f64) {
        let half = z * self.std_dev();
        ((self.value - half).max(0.0), self.value + half)
    }

    /// The paper's 95% bounds: `value ± 1.96·σ` (§6, item 4).
    pub fn ci95(&self) -> (f64, f64) {
        self.ci(1.96)
    }

    /// The estimate of `c·X` given this estimate of `X`: value scales by
    /// `c`, variance by `c²`. Used by `gps-engine` to undo the known
    /// subsampling factor a sharded partition applies to subgraph counts.
    pub fn scaled(&self, c: f64) -> Estimate {
        Estimate {
            value: self.value * c,
            variance: self.variance * c * c,
        }
    }

    /// The estimate of `X + Y` from *independent* estimates of `X` and `Y`:
    /// values and variances sum. This is the stratified-estimation identity
    /// behind cross-shard merging — Horvitz–Thompson estimates over
    /// disjoint, independently sampled strata add unbiasedly.
    pub fn add_independent(&self, other: &Estimate) -> Estimate {
        Estimate {
            value: self.value + other.value,
            variance: self.variance + other.variance,
        }
    }

    /// Absolute relative error against ground truth `actual`
    /// (`|X̂ - X| / X`, the paper's ARE; 0 when both are 0).
    pub fn are(&self, actual: f64) -> f64 {
        if actual == 0.0 {
            if self.value == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.value - actual).abs() / actual
        }
    }
}

/// Triangle, wedge, and clustering estimates from one sample.
#[derive(Clone, Copy, Debug)]
pub struct TriadEstimates {
    /// Triangle count estimate `N̂(△)` with variance `V̂(△)`.
    pub triangles: Estimate,
    /// Wedge count estimate `N̂(Λ)` with variance `V̂(Λ)`.
    pub wedges: Estimate,
    /// Triangle–wedge covariance estimate `V̂(△,Λ)` (paper Eq. 12).
    pub tri_wedge_cov: f64,
    /// Global clustering coefficient `α̂ = 3·N̂(△)/N̂(Λ)` with delta-method
    /// variance (paper Eq. 11).
    pub clustering: Estimate,
}

impl TriadEstimates {
    /// Assembles the bundle, deriving the clustering estimate from the
    /// triangle/wedge estimates via the delta method.
    pub fn from_parts(triangles: Estimate, wedges: Estimate, tri_wedge_cov: f64) -> Self {
        let clustering = clustering_estimate(&triangles, &wedges, tri_wedge_cov);
        TriadEstimates {
            triangles,
            wedges,
            tri_wedge_cov,
            clustering,
        }
    }

    /// Merges estimates over disjoint, **independently sampled** strata
    /// (e.g. one per `gps-engine` shard): triangle and wedge values,
    /// variances, and within-stratum covariances all sum — cross-stratum
    /// covariances vanish by independence — and the clustering coefficient
    /// is re-derived from the merged counts.
    ///
    /// The merged triangle (wedge) estimate is unbiased for the total count
    /// of triangles (wedges) that lie *within* a stratum. When strata
    /// partition the edges of one graph, multi-edge subgraphs spanning
    /// strata are invisible to every stratum; undoing that known
    /// subsampling factor is the caller's job (see
    /// `gps_engine::ShardedGps::estimate`, which rescales via
    /// [`Estimate::scaled`]).
    pub fn merged_strata<I: IntoIterator<Item = TriadEstimates>>(parts: I) -> TriadEstimates {
        let zero = Estimate::exact(0.0);
        let (triangles, wedges, cov) =
            parts
                .into_iter()
                .fold((zero, zero, 0.0), |(tri, wedge, cov), part| {
                    (
                        tri.add_independent(&part.triangles),
                        wedge.add_independent(&part.wedges),
                        cov + part.tri_wedge_cov,
                    )
                });
        TriadEstimates::from_parts(triangles, wedges, cov)
    }

    /// Merges per-color estimates from an `S`-way random edge coloring (one
    /// entry per color, e.g. one per `gps-engine` shard) into *global*
    /// estimates with **honest `S > 1` variances**.
    ///
    /// Point estimates are the colorful-counting merge: the strata sum
    /// rescaled by the monochromacy factors `S²` (triangles, 3 edges), `S`
    /// (wedges, 2 edges) and `S³` (covariance).
    ///
    /// Variances decompose by the law of total variance over the coloring
    /// `C`: `Var(X̂) = E[Var(X̂|C)] + Var(E[X̂|C])`.
    ///
    /// - The **conditional** term is the strata-sum of per-shard HT variance
    ///   estimates, rescaled (`S⁴` triangles, `S²` wedges) — unbiased for
    ///   `E[Var(X̂|C)]`, and all a sharded run reported before this
    ///   decomposition existed.
    /// - The **between-shard (coloring)** term uses the observation that
    ///   each shard alone yields an unbiased global estimate `Ŷ_i = S³·t̂_i`
    ///   (resp. `S²·ŵ_i`) and the merged value is their mean `Ȳ`. The
    ///   empirical variance of that mean, `Σ(Ŷ_i − Ȳ)²/(S(S−1))`, estimates
    ///   the *total* variance — both terms at once (per-shard sampling is
    ///   independent given `C`; the weak negative correlation between
    ///   monochromatic counts only makes it conservative). The reported
    ///   variance is therefore `conditional + max(0, empirical − conditional)`
    ///   = `max(conditional, empirical)`: the coloring excess is added
    ///   without ever discarding the unbiased conditional term, and the
    ///   clamp keeps the (χ²_{S−1}-noisy, small-`S`) empirical estimate from
    ///   *shrinking* a CI below the conditional one.
    ///
    /// The triangle–wedge covariance keeps the conditional (strata-sum)
    /// term only: coloring-induced covariance is positive, and a positive
    /// covariance *tightens* the delta-method clustering variance, so
    /// omitting it errs conservative.
    ///
    /// With one part this degenerates bit-for-bit to [`merged_strata`]
    /// (factors of 1, no between term) — the `S = 1` engine stays
    /// bit-identical to a bare sampler.
    ///
    /// [`merged_strata`]: TriadEstimates::merged_strata
    pub fn merged_colored(parts: &[TriadEstimates]) -> TriadEstimates {
        assert!(!parts.is_empty(), "need at least one color");
        let s = parts.len() as f64;
        let merged = Self::merged_strata(parts.iter().copied());
        let triangles = merged.triangles.scaled(s * s);
        let wedges = merged.wedges.scaled(s);
        let cov = merged.tri_wedge_cov * s * s * s;
        if parts.len() == 1 {
            return Self::from_parts(triangles, wedges, cov);
        }
        let tri_between = variance_of_mean(parts.iter().map(|p| p.triangles.value * s * s * s));
        let wedge_between = variance_of_mean(parts.iter().map(|p| p.wedges.value * s * s));
        Self::from_parts(
            Estimate {
                value: triangles.value,
                variance: triangles.variance.max(tri_between),
            },
            Estimate {
                value: wedges.value,
                variance: wedges.variance.max(wedge_between),
            },
            cov,
        )
    }

    /// [`merged_colored`] when only `parts.len()` of the `total` colors
    /// reported (a degraded epoch: some shards are crashed, stalled, or not
    /// yet recovered).
    ///
    /// Each reporting color alone yields an unbiased *global* estimate
    /// (`S³·t̂_i` triangles, `S²·ŵ_i` wedges, with `S = total`); the merged
    /// value is the mean of the reporting colors' global estimates —
    /// still unbiased, since colors are exchangeable under the random edge
    /// coloring, at the cost of averaging over fewer strata (variances grow
    /// by roughly `S/k`). Variances keep the `max(conditional, empirical)`
    /// structure of [`merged_colored`] with the conditional term rescaled by
    /// `S⁶/k²` (triangles), `S⁴/k²` (wedges), and the covariance by `S⁵/k²`.
    ///
    /// With `parts.len() == total` this delegates to [`merged_colored`]
    /// bit-for-bit, so full epochs are unchanged by routing through here.
    ///
    /// [`merged_colored`]: TriadEstimates::merged_colored
    pub fn merged_colored_partial(parts: &[TriadEstimates], total: usize) -> TriadEstimates {
        assert!(!parts.is_empty(), "need at least one reporting color");
        assert!(
            parts.len() <= total,
            "more reporting colors than the coloring has"
        );
        if parts.len() == total {
            return Self::merged_colored(parts);
        }
        let k = parts.len() as f64;
        let s = total as f64;
        let s3 = s * s * s;
        let merged = Self::merged_strata(parts.iter().copied());
        let triangles = merged.triangles.scaled(s3 / k);
        let wedges = merged.wedges.scaled(s * s / k);
        let cov = merged.tri_wedge_cov * s3 * s * s / (k * k);
        let tri_between = variance_of_mean(parts.iter().map(|p| p.triangles.value * s3));
        let wedge_between = variance_of_mean(parts.iter().map(|p| p.wedges.value * s * s));
        Self::from_parts(
            Estimate {
                value: triangles.value,
                variance: triangles.variance.max(tri_between),
            },
            Estimate {
                value: wedges.value,
                variance: wedges.variance.max(wedge_between),
            },
            cov,
        )
    }

    /// Widens the confidence intervals to account for a known fraction of
    /// the stream that the sampler never observed (arrivals lost between a
    /// shard's last checkpoint and its crash).
    ///
    /// Each lost arrival could have contributed to the counts roughly in
    /// proportion to the observed stream, so the point estimates are left
    /// unbiased *given* exchangeability of the lost window and the
    /// uncertainty is surfaced instead: one extra standard deviation equal
    /// to `lost_fraction · value` is added in quadrature to the triangle and
    /// wedge variances (a deliberate heuristic — the loss is adversarially
    /// unbounded, so no estimator can be exact; the contract is *honest
    /// flagging*, never a silently narrowed interval). The clustering
    /// estimate is re-derived from the widened parts.
    pub fn widened_for_loss(&self, lost_fraction: f64) -> TriadEstimates {
        let f = lost_fraction.max(0.0);
        let widen = |e: &Estimate| Estimate {
            value: e.value,
            variance: e.variance + (f * e.value) * (f * e.value),
        };
        Self::from_parts(
            widen(&self.triangles),
            widen(&self.wedges),
            self.tri_wedge_cov,
        )
    }
}

/// Empirical variance of the **mean** of `xs`:
/// `Σ(x_i − x̄)² / (n(n−1))`, the standard honest variance estimator for an
/// average of identically-distributed estimates (0 when `n < 2`, where no
/// dispersion is observable). This is the between-shard term of
/// [`TriadEstimates::merged_colored`].
pub fn variance_of_mean<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let xs: Vec<f64> = xs.into_iter().collect();
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    ss / ((n - 1) as f64 * n as f64)
}

/// Delta-method estimate of the global clustering coefficient
/// `α̂ = 3·T̂/Ŵ` (paper Eq. 11):
///
/// ```text
/// Var(T̂/Ŵ) ≈ Var(T̂)/Ŵ² + T̂²·Var(Ŵ)/Ŵ⁴ − 2·T̂·Cov(T̂,Ŵ)/Ŵ³
/// ```
///
/// multiplied by 9 for the leading factor 3. Returns an exact zero estimate
/// when no wedges were observed (clustering undefined/zero).
pub fn clustering_estimate(triangles: &Estimate, wedges: &Estimate, cov: f64) -> Estimate {
    let t = triangles.value;
    let w = wedges.value;
    if w <= 0.0 {
        return Estimate::exact(0.0);
    }
    let ratio_var = triangles.variance / (w * w) + t * t * wedges.variance / w.powi(4)
        - 2.0 * t * cov / (w * w * w);
    Estimate {
        value: 3.0 * t / w,
        variance: (9.0 * ratio_var).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_is_symmetric_and_clamped() {
        let e = Estimate {
            value: 100.0,
            variance: 25.0,
        };
        let (lb, ub) = e.ci(2.0);
        assert_eq!((lb, ub), (90.0, 110.0));
        let tiny = Estimate {
            value: 1.0,
            variance: 100.0,
        };
        let (lb, _) = tiny.ci95();
        assert_eq!(lb, 0.0, "lower bound clamps at zero");
    }

    #[test]
    fn ci95_uses_paper_z() {
        let e = Estimate {
            value: 0.0,
            variance: 1.0,
        };
        let (_, ub) = e.ci95();
        assert!((ub - 1.96).abs() < 1e-12);
    }

    #[test]
    fn are_handles_zero_actual() {
        assert_eq!(Estimate::exact(0.0).are(0.0), 0.0);
        assert_eq!(Estimate::exact(5.0).are(0.0), f64::INFINITY);
        assert!((Estimate::exact(99.0).are(100.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn negative_float_noise_in_variance_is_tolerated() {
        let e = Estimate {
            value: 10.0,
            variance: -1e-12,
        };
        assert_eq!(e.std_dev(), 0.0);
    }

    #[test]
    fn clustering_exact_when_inputs_exact() {
        // 4 triangles, 12 wedges → α = 1 with zero variance.
        let c = clustering_estimate(&Estimate::exact(4.0), &Estimate::exact(12.0), 0.0);
        assert!((c.value - 1.0).abs() < 1e-12);
        assert_eq!(c.variance, 0.0);
    }

    #[test]
    fn clustering_zero_when_no_wedges() {
        let c = clustering_estimate(&Estimate::exact(0.0), &Estimate::exact(0.0), 0.0);
        assert_eq!(c.value, 0.0);
        assert_eq!(c.variance, 0.0);
    }

    #[test]
    fn clustering_variance_formula_matches_hand_computation() {
        let t = Estimate {
            value: 50.0,
            variance: 4.0,
        };
        let w = Estimate {
            value: 600.0,
            variance: 100.0,
        };
        let cov = 10.0;
        let c = clustering_estimate(&t, &w, cov);
        let expect = 9.0
            * (4.0 / (600.0f64 * 600.0) + 50.0 * 50.0 * 100.0 / 600.0f64.powi(4)
                - 2.0 * 50.0 * 10.0 / 600.0f64.powi(3));
        assert!((c.variance - expect).abs() < 1e-15);
        assert!((c.value - 0.25).abs() < 1e-12);
    }

    #[test]
    fn positive_covariance_tightens_clustering_variance() {
        let t = Estimate {
            value: 50.0,
            variance: 4.0,
        };
        let w = Estimate {
            value: 600.0,
            variance: 100.0,
        };
        let loose = clustering_estimate(&t, &w, 0.0);
        let tight = clustering_estimate(&t, &w, 20.0);
        assert!(tight.variance < loose.variance);
    }

    #[test]
    fn scaling_transforms_value_linearly_and_variance_quadratically() {
        let e = Estimate {
            value: 10.0,
            variance: 4.0,
        };
        let s = e.scaled(3.0);
        assert_eq!(s.value, 30.0);
        assert_eq!(s.variance, 36.0);
        assert_eq!(e.scaled(1.0), e);
    }

    #[test]
    fn independent_sums_add_values_and_variances() {
        let a = Estimate {
            value: 5.0,
            variance: 2.0,
        };
        let b = Estimate {
            value: 7.0,
            variance: 3.0,
        };
        let s = a.add_independent(&b);
        assert_eq!(s.value, 12.0);
        assert_eq!(s.variance, 5.0);
    }

    #[test]
    fn merged_strata_sums_parts_and_rederives_clustering() {
        let a = TriadEstimates::from_parts(
            Estimate {
                value: 4.0,
                variance: 1.0,
            },
            Estimate {
                value: 24.0,
                variance: 2.0,
            },
            0.5,
        );
        let b = TriadEstimates::from_parts(
            Estimate {
                value: 6.0,
                variance: 3.0,
            },
            Estimate {
                value: 36.0,
                variance: 4.0,
            },
            1.5,
        );
        let m = TriadEstimates::merged_strata([a, b]);
        assert_eq!(m.triangles.value, 10.0);
        assert_eq!(m.triangles.variance, 4.0);
        assert_eq!(m.wedges.value, 60.0);
        assert_eq!(m.wedges.variance, 6.0);
        assert_eq!(m.tri_wedge_cov, 2.0);
        assert!((m.clustering.value - 0.5).abs() < 1e-12);
        // Merging nothing is the empty estimate.
        let empty = TriadEstimates::merged_strata([]);
        assert_eq!(empty.triangles.value, 0.0);
        assert_eq!(empty.clustering.value, 0.0);
    }

    #[test]
    fn variance_of_mean_matches_hand_computation() {
        assert_eq!(variance_of_mean([]), 0.0);
        assert_eq!(variance_of_mean([5.0]), 0.0);
        // x = {1, 3}: mean 2, SS = 2, n(n-1) = 2 → 1.
        assert!((variance_of_mean([1.0, 3.0]) - 1.0).abs() < 1e-15);
        // x = {0, 2, 4}: mean 2, SS = 8, n(n-1) = 6 → 4/3.
        assert!((variance_of_mean([0.0, 2.0, 4.0]) - 4.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn merged_colored_single_part_is_identity() {
        let a = TriadEstimates::from_parts(
            Estimate {
                value: 4.0,
                variance: 1.5,
            },
            Estimate {
                value: 24.0,
                variance: 2.5,
            },
            0.75,
        );
        let m = TriadEstimates::merged_colored(&[a]);
        assert_eq!(m.triangles.value.to_bits(), a.triangles.value.to_bits());
        assert_eq!(
            m.triangles.variance.to_bits(),
            a.triangles.variance.to_bits()
        );
        assert_eq!(m.wedges.value.to_bits(), a.wedges.value.to_bits());
        assert_eq!(m.tri_wedge_cov.to_bits(), a.tri_wedge_cov.to_bits());
    }

    #[test]
    fn merged_colored_points_match_plain_rescale_and_variance_never_shrinks() {
        let parts = [
            TriadEstimates::from_parts(
                Estimate {
                    value: 4.0,
                    variance: 1.0,
                },
                Estimate {
                    value: 24.0,
                    variance: 2.0,
                },
                0.5,
            ),
            TriadEstimates::from_parts(
                Estimate {
                    value: 6.0,
                    variance: 3.0,
                },
                Estimate {
                    value: 36.0,
                    variance: 4.0,
                },
                1.5,
            ),
        ];
        let m = TriadEstimates::merged_colored(&parts);
        // Point estimates: S²·Σt̂ and S·Σŵ, exactly as the engine's plain
        // rescale produced them.
        assert_eq!(m.triangles.value, 4.0 * 10.0);
        assert_eq!(m.wedges.value, 2.0 * 60.0);
        assert_eq!(m.tri_wedge_cov, 8.0 * 2.0);
        // Conditional terms: S⁴·ΣV̂ = 64, S²·ΣV̂ = 24.
        let tri_cond = 16.0 * 4.0;
        let wedge_cond = 4.0 * 6.0;
        assert!(m.triangles.variance >= tri_cond);
        assert!(m.wedges.variance >= wedge_cond);
        // Between terms: per-shard global estimates S³·t̂ = {32, 48} and
        // S²·ŵ = {96, 144} → variance-of-mean 64 and 576.
        assert_eq!(m.triangles.variance, tri_cond.max(64.0));
        assert_eq!(m.wedges.variance, wedge_cond.max(576.0));
    }

    #[test]
    fn merged_colored_keeps_conditional_variance_when_shards_agree() {
        // Identical per-shard estimates: zero observed dispersion, so the
        // clamp leaves the conditional (strata-sum) variance untouched.
        let part = TriadEstimates::from_parts(
            Estimate {
                value: 5.0,
                variance: 2.0,
            },
            Estimate {
                value: 30.0,
                variance: 3.0,
            },
            1.0,
        );
        let m = TriadEstimates::merged_colored(&[part, part]);
        assert_eq!(m.triangles.variance, 16.0 * 4.0);
        assert_eq!(m.wedges.variance, 4.0 * 6.0);
    }

    #[test]
    fn merged_colored_partial_full_set_is_bit_identical_to_merged_colored() {
        let parts = [
            TriadEstimates::from_parts(
                Estimate {
                    value: 4.0,
                    variance: 1.0,
                },
                Estimate {
                    value: 24.0,
                    variance: 2.0,
                },
                0.5,
            ),
            TriadEstimates::from_parts(
                Estimate {
                    value: 6.0,
                    variance: 3.0,
                },
                Estimate {
                    value: 36.0,
                    variance: 4.0,
                },
                1.5,
            ),
        ];
        let full = TriadEstimates::merged_colored(&parts);
        let partial = TriadEstimates::merged_colored_partial(&parts, 2);
        assert_eq!(
            full.triangles.value.to_bits(),
            partial.triangles.value.to_bits()
        );
        assert_eq!(
            full.triangles.variance.to_bits(),
            partial.triangles.variance.to_bits()
        );
        assert_eq!(full.wedges.value.to_bits(), partial.wedges.value.to_bits());
        assert_eq!(
            full.wedges.variance.to_bits(),
            partial.wedges.variance.to_bits()
        );
        assert_eq!(
            full.tri_wedge_cov.to_bits(),
            partial.tri_wedge_cov.to_bits()
        );
    }

    #[test]
    fn merged_colored_partial_extrapolates_one_of_four_colors() {
        // One reporting color out of S = 4: t̂ = 2 with v̂ = 0.5 →
        // value S³·t̂ = 128, conditional variance S⁶·v̂ = 2048 (no
        // between-term with k = 1).
        let part = TriadEstimates::from_parts(
            Estimate {
                value: 2.0,
                variance: 0.5,
            },
            Estimate {
                value: 12.0,
                variance: 1.0,
            },
            0.25,
        );
        let m = TriadEstimates::merged_colored_partial(&[part], 4);
        assert_eq!(m.triangles.value, 128.0);
        assert_eq!(m.triangles.variance, 2048.0);
        // Wedges: S²·ŵ = 192, S⁴·v̂ = 256. Covariance: S⁵·ĉ = 256.
        assert_eq!(m.wedges.value, 192.0);
        assert_eq!(m.wedges.variance, 256.0);
        assert_eq!(m.tri_wedge_cov, 256.0);
    }

    #[test]
    fn merged_colored_partial_two_of_four_averages_per_color_globals() {
        let parts = [
            TriadEstimates::from_parts(
                Estimate {
                    value: 2.0,
                    variance: 0.5,
                },
                Estimate {
                    value: 12.0,
                    variance: 1.0,
                },
                0.0,
            ),
            TriadEstimates::from_parts(
                Estimate {
                    value: 4.0,
                    variance: 0.5,
                },
                Estimate {
                    value: 20.0,
                    variance: 1.0,
                },
                0.0,
            ),
        ];
        let m = TriadEstimates::merged_colored_partial(&parts, 4);
        // Mean of per-color globals S³·t̂ ∈ {128, 256} → 192; conditional
        // S⁶/k²·Σv̂ = 4096/4·1 = 1024, between Σ(x−x̄)²/(k(k−1)) = 4096.
        assert_eq!(m.triangles.value, 192.0);
        assert_eq!(m.triangles.variance, 4096.0);
        // Wedges: mean of S²·ŵ ∈ {192, 320} → 256.
        assert_eq!(m.wedges.value, 256.0);
    }

    #[test]
    fn widened_for_loss_grows_variance_and_keeps_values() {
        let base = TriadEstimates::from_parts(
            Estimate {
                value: 100.0,
                variance: 25.0,
            },
            Estimate {
                value: 600.0,
                variance: 100.0,
            },
            10.0,
        );
        let w = base.widened_for_loss(0.1);
        assert_eq!(w.triangles.value, 100.0);
        assert_eq!(w.triangles.variance, 25.0 + 100.0);
        assert_eq!(w.wedges.value, 600.0);
        assert_eq!(w.wedges.variance, 100.0 + 3600.0);
        assert_eq!(w.tri_wedge_cov, 10.0);
        // Zero loss changes nothing.
        let same = base.widened_for_loss(0.0);
        assert_eq!(same.triangles.variance, base.triangles.variance);
        // Negative input (float noise) is clamped, never shrinks.
        let clamped = base.widened_for_loss(-0.5);
        assert_eq!(clamped.triangles.variance, base.triangles.variance);
    }

    #[test]
    fn triad_bundle_derives_clustering() {
        let b = TriadEstimates::from_parts(Estimate::exact(10.0), Estimate::exact(60.0), 0.0);
        assert!((b.clustering.value - 0.5).abs() < 1e-12);
    }
}
