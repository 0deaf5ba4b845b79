package repro.prob

/** The capped DP `PoissonBinomial.kappaFast` replaced, kept as the reference
  * it is compared against: the cap starts at 4 and doubles until κ is
  * strictly below it (or the cap reaches c). It is otherwise unchanged.
  */
object ReferenceKappa {

  def kappa(existProb: Double, probs: Array[Double], theta: Double): Int = {
    if (existProb < theta) return -1
    val c = probs.length
    if (c == 0) return 0
    var kCap = 4
    while (true) {
      val cap = math.min(kCap, c)
      // dp(j) = Pr[ζ = j] for j < cap (tail mass ≥ cap is implicit)
      val dp = new Array[Double](cap)
      dp(0) = 1.0
      var i = 0
      while (i < c) {
        val p = probs(i)
        var k = math.min(i + 1, cap - 1)
        while (k >= 1) { dp(k) = p * dp(k - 1) + (1 - p) * dp(k); k -= 1 }
        dp(0) = (1 - p) * dp(0)
        i += 1
      }
      // find the largest k ≤ cap with existProb·(1 − Pr[ζ < k]) ≥ θ
      var cdf  = 0.0
      var best = 0
      var k    = 1
      var fail = false
      while (k <= cap && !fail) {
        cdf += dp(k - 1)
        if (existProb * math.max(0.0, 1.0 - cdf) >= theta) best = k else fail = true
        k += 1
      }
      if (best < cap || cap == c) return best
      kCap *= 2
    }
    0 // unreachable
  }
}
