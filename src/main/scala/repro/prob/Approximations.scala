package repro.prob

/** Statistical approximations of the Poisson-binomial tail (Section 5.3).
  *
  * Each approximation computes κ = max k with existProb·Pr[ζ ≥ k] ≥ θ in
  * O(c_Δ) time (versus O(κ·c_Δ) for the exact DP):
  *
  *  - Poisson with λ = μ (error bound: Le Cam, Eq. 9);
  *  - Translated Poisson Y = ⌊λ₂⌋ + Π(λ−⌊λ₂⌋), λ₂ = λ − σ² (Röllin, Eq. 12);
  *  - Binomial with n = c_Δ, p = μ/n (Ehm, Eq. 15);
  *  - Normal via Lyapunov CLT (Eq. 13).
  *
  * The hybrid selector [[Approximations.select]] implements the paper's
  * condition list (1)-(5); condition (5) falls back to the exact DP.
  */
object Approximations {

  /** Which method the hybrid selector chose — exposed so experiments can
    * report how often the DP fallback fires.
    */
  sealed trait Method
  case object CLT              extends Method
  case object Poisson          extends Method
  case object TranslatedPoisson extends Method
  case object Binomial         extends Method
  case object ExactDP          extends Method

  /** Standard normal CDF Φ via erf (Abramowitz–Stegun 7.1.26, |err| < 1.5e-7). */
  def phi(x: Double): Double = {
    val t  = 1.0 / (1.0 + 0.3275911 * math.abs(x) / math.sqrt(2.0))
    val y  = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t
                    - 0.284496736) * t + 0.254829592) * t * math.exp(-x * x / 2.0)
    if (x >= 0) 0.5 * (1.0 + y) else 0.5 * (1.0 - y)
  }

  /** The fused statistics of one Pr(E) list: c, μ = Σp, Σp² and max p,
    * with σ² = Σp(1 − p) = μ − Σp².
    */
  private final class Stats(val c: Int, val mu: Double, val sumSq: Double, val maxP: Double) {
    def sigma2: Double = mu - sumSq
  }

  /** One pass over `probs` — the O(c_Δ) bound of Section 5.3 with a small
    * constant, which is what makes AP pay off against the O(κ·c_Δ) DP
    * during peeling.
    */
  private def stats(probs: Array[Double]): Stats = {
    var mu = 0.0; var sumSq = 0.0; var maxP = 0.0
    var i = 0
    while (i < probs.length) {
      val p = probs(i)
      mu += p; sumSq += p * p; if (p > maxP) maxP = p
      i += 1
    }
    new Stats(probs.length, mu, sumSq, maxP)
  }

  /** The paper's condition list (1)-(5) with its hyperparameters A = 200,
    * B = 100, C = 0.25 and D = 0.9 (Section 5.3, "Summary").
    */
  private def condition(s: Stats): Method =
    if (s.c >= 200) CLT                                             // (1) c ≥ A
    else if (s.c < 100 && s.maxP < 0.25) Poisson                    // (2) c < B, max p < C
    else if (s.sumSq > 1.0) TranslatedPoisson                       // (3)
    else {
      val p      = s.mu / s.c
      val varBin = s.c * p * (1 - p)
      if (varBin > 0 && s.sigma2 / varBin >= 0.9) Binomial          // (4) σ²/σ²_bin ≥ D
      else if (varBin == 0.0 && s.sigma2 == 0.0) Binomial           // degenerate but exact
      else ExactDP                                                  // (5)
    }

  /** κ = max k ≤ c with existProb·Pr[ζ ≥ k] ≥ θ under method `m`'s
    * distribution for ζ, from the statistics c, μ, σ² of `probs`. Every
    * tail is non-increasing in k, so each walk stops at the first k that
    * fails.
    *
    * The walks stay in this one method on purpose: it is past HotSpot's
    * hot-method inlining size, so [[kappaAuto]] compiles small and inlines
    * into the peeling kernel's scorer call. With one small method per walk
    * the whole chain inlined into the AP scorer, the kernel stopped inlining
    * it, and an enwiki-stand-in pass allocated ~7% more (measured while the
    * scorer was a `Function3` with boxed arguments; [[Scorer]] boxes none).
    */
  private def walk(m: Method, existProb: Double, probs: Array[Double], c: Int, mu: Double,
                   sigma2: Double, theta: Double): Int = m match {
    case ExactDP => PoissonBinomial.kappaFast(existProb, probs, theta)
    case Poisson | TranslatedPoisson =>
      // ζ ≈ shift + Π(λ): Poisson has shift 0 and λ = μ (Eq. 10); Translated
      // Poisson has shift ⌊λ₂⌋, λ₂ = μ − σ², and λ = μ − shift (Eq. 12)
      val shift  = if (m == Poisson) 0 else math.floor(mu - sigma2).toInt.max(0)
      val lambda = mu - shift
      var pmfJ = math.exp(-lambda)  // Pr[Π = j], from j = 0
      var cdf  = 0.0                // Pr[Π ≤ k − shift − 1]
      var best = math.min(shift, c) // the tail is 1 up to the shift
      var j = 0
      var k = shift + 1
      while (k <= c) {
        cdf += pmfJ // fold Pr[Π = k − shift − 1]
        if (existProb * math.max(0.0, 1.0 - cdf) >= theta) best = k
        else return best
        j += 1
        pmfJ = pmfJ * lambda / j
        k += 1
      }
      best
    case Binomial => // n = c, p = μ/n (Eq. 15)
      val p = mu / c
      if (p >= 1.0) return c // all mass at ζ = c
      var pmfK = math.pow(1 - p, c) // Pr[ζ = k − 1], from k = 1
      var cdf  = 0.0                // Pr[ζ ≤ k − 1]
      var best = 0
      var k    = 1
      while (k <= c) {
        cdf += pmfK
        if (existProb * math.max(0.0, 1.0 - cdf) >= theta) best = k
        else return best
        pmfK = pmfK * (c - k + 1) * p / (k * (1 - p))
        k += 1
      }
      best
    case CLT =>
      // Pr[ζ ≥ k] ≈ 1 − Φ((k − ½ − μ)/σ) (Eq. 13), continuity-corrected:
      // standard for integer-valued sums and needed to keep the large-c_Δ
      // branch "practically indistinguishable" from DP
      val sigma = math.sqrt(sigma2)
      if (sigma == 0.0) return math.min(mu.round.toInt, c) // all p_i ∈ {0,1}: ζ = μ exactly
      var best = 0
      var k    = 1
      while (k <= c) {
        if (existProb * (1.0 - phi((k - 0.5 - mu) / sigma)) >= theta) best = k
        else return best
        k += 1
      }
      best
  }

  /** The method the hybrid selector picks for `probs`. */
  def select(probs: Array[Double]): Method = condition(stats(probs))

  /** κ via one method, whatever the condition list would pick. */
  def kappaWith(m: Method, existProb: Double, probs: Array[Double], theta: Double): Int =
    if (existProb < theta) -1
    else if (probs.isEmpty) 0
    else { val s = stats(probs); walk(m, existProb, probs, s.c, s.mu, s.sigma2, theta) }

  /** κ via the hybrid AP path: the method [[select]] picks, falling back to
    * exact DP in case (5).
    */
  def kappaAuto(existProb: Double, probs: Array[Double], theta: Double): Int =
    if (existProb < theta) -1
    else if (probs.isEmpty) 0
    else {
      val s = stats(probs)
      walk(condition(s), existProb, probs, s.c, s.mu, s.sigma2, theta)
    }
}
