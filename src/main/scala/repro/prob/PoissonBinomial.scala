package repro.prob

/** Exact Poisson-binomial distribution via the paper's dynamic program.
  *
  * For a triangle Δ with 4-clique "apexes" z_1..z_c, the support random
  * variable is ζ = Σ_i E_i with independent Bernoulli indicators
  * E_i ~ Bernoulli(Pr(E_i)) (Section 5.1, Eq. 7). This object computes the
  * pmf Pr[ζ = k] exactly: X(S, k, j) = Pr(E_j)·X(S, k-1, j-1) +
  * (1-Pr(E_j))·X(S, k, j-1). The same DP serves the probabilistic core and
  * truss baselines (vertex degree / edge support are also Poisson-binomials).
  */
object PoissonBinomial {

  /** Exact pmf of ζ = Σ Bernoulli(probs(i)); returns array of length
    * probs.length + 1 with entry k = Pr[ζ = k]. O(c²) time, O(c) space.
    */
  def pmf(probs: Array[Double]): Array[Double] = {
    val c = probs.length
    val dp = new Array[Double](c + 1)
    dp(0) = 1.0
    var j = 0
    while (j < c) {
      val p = probs(j)
      // iterate k downwards so dp(k-1) is still the j-1 column
      var k = j + 1
      while (k >= 1) {
        dp(k) = p * dp(k - 1) + (1 - p) * dp(k)
        k -= 1
      }
      dp(0) = (1 - p) * dp(0)
      j += 1
    }
    dp
  }

  /** Tail Pr[ζ ≥ k] for all k in 0..c, from the exact pmf. */
  def tail(probs: Array[Double]): Array[Double] = {
    val m   = pmf(probs)
    val out = new Array[Double](m.length)
    var acc = 0.0
    var k   = m.length - 1
    while (k >= 0) { acc += m(k); out(k) = acc; k -= 1 }
    out
  }

  /** κ score (Section 5.1): the largest k with
    * existProb · Pr[ζ ≥ k] ≥ θ, or -1 if even k = 0 fails
    * (i.e. the item itself exists with probability < θ).
    */
  def kappa(existProb: Double, probs: Array[Double], theta: Double): Int = {
    if (existProb < theta) return -1
    // Pr[ζ ≥ 0] = 1, so k = 0 always qualifies once existProb ≥ θ.
    val t = tail(probs)
    var k = probs.length
    while (k > 0 && existProb * t(k) < theta) k -= 1
    k
  }

  /** κ on a fresh [[KappaDp]]: for the tests and AP's rare exact fallback. */
  def kappaFast(existProb: Double, probs: Array[Double], theta: Double): Int = new KappaDp()(existProb, probs, theta)

  /** κ with the paper's O(κ·c) cost: run the DP with the count dimension
    * capped at `cap` (only Pr[ζ = 0..cap−1], which no cap changes, so neither
    * does κ: Pr[ζ ≥ k] = 1 − Σ_{j<k} Pr[ζ = j]). The first cap, `capSeed`,
    * exceeds Cantelli's bound on κ; if κ still reaches the cap, it doubles.
    * The DP row is one buffer, grown as needed and zeroed up to the cap on
    * each pass, so a peel scores with one instance (a [[Scorer]]) and no row
    * per call. An instance serves one thread.
    */
  final class KappaDp extends Scorer {
    private var buf = new Array[Double](0)
    def apply(existProb: Double, probs: Array[Double], theta: Double): Int = {
      if (existProb < theta) return -1
      val c = probs.length
      if (c == 0) return 0
      var cap  = capSeed(existProb, probs, theta)
      var best = -1
      while (best < 0) {
        // dp(j) = Pr[ζ = j] for j < cap (tail mass ≥ cap is implicit)
        if (buf.length < cap) buf = new Array[Double](math.max(cap, 2 * buf.length))
        val dp = buf
        java.util.Arrays.fill(dp, 1, cap, 0.0); dp(0) = 1.0
        var i = 0
        while (i < c) {
          // k upwards, carrying the previous column's dp(k − 1) in `prev`:
          // the same products and sums as the downward in-place recurrence
          val p = probs(i); val q = 1 - p
          var prev = dp(0)
          dp(0) = q * prev
          val top = math.min(i + 1, cap - 1)
          var k = 1
          while (k <= top) { val old = dp(k); dp(k) = p * prev + q * old; prev = old; k += 1 }
          i += 1
        }
        // best = the largest k ≤ cap with existProb·(1 − Pr[ζ < k]) ≥ θ
        var cdf = 0.0
        best = 0
        while (best < cap && { cdf += dp(best); existProb * math.max(0.0, 1.0 - cdf) >= theta }) best += 1
        if (best == cap && cap < c) { best = -1; cap = math.min(2 * cap, c) } // κ may lie above the cap
      }
      best
    }
  }

  /** The first DP cap of [[KappaDp]], at most c. With μ = Σp, σ² = Σp(1−p)
    * and t = θ/existProb, Cantelli's inequality Pr[ζ ≥ μ + a] ≤ σ²/(σ² + a²)
    * gives κ ≤ μ + σ·√(1/t − 1); the seed is that bound rounded down, plus 2
    * for rounding. θ = 0 gives c (κ = c), as does a bound that is NaN (0·∞).
    */
  private[prob] def capSeed(existProb: Double, probs: Array[Double], theta: Double): Int = {
    val c = probs.length
    var mu, sigma2 = 0.0
    var i = 0
    while (i < c) { val p = probs(i); mu += p; sigma2 += p * (1 - p); i += 1 }
    val bound = mu + math.sqrt(sigma2) * math.sqrt(existProb / theta - 1)
    if (theta > 0 && bound < c) math.min(c, math.floor(bound).toInt + 2) else c
  }
}
