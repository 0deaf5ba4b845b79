package repro.prob

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The four κ approximations of Section 5.3, validated under their
  * applicability conditions against the exact DP, plus the hybrid selector's
  * condition list.
  */
class ApproximationsSpec extends AnyFunSuite {
  import Approximations._

  test("phi approximates the standard normal CDF") {
    val known = Seq(
      0.0 -> 0.5, 1.0 -> 0.841345, -1.0 -> 0.158655,
      1.96 -> 0.975002, -1.96 -> 0.024998, 3.0 -> 0.998650, -3.0 -> 0.001350)
    known.foreach { case (x, expected) =>
      assert(math.abs(phi(x) - expected) < 1e-5, s"phi($x)")
    }
  }

  test("phi is monotone and symmetric") {
    val xs = (-40 to 40).map(_ / 10.0)
    xs.sliding(2).foreach { case Seq(a, b) => assert(phi(a) <= phi(b) + 1e-12); case _ => }
    xs.foreach(x => assert(math.abs(phi(x) + phi(-x) - 1.0) < 1e-7))
  }

  test("Poisson approximation is close to DP when Pr(E_i) small and c moderate") {
    val rnd = new Random(10)
    var maxDiff = 0
    for (_ <- 1 to 200) {
      val c     = 1 + rnd.nextInt(60)
      val probs = Array.fill(c)(0.001 + rnd.nextDouble() * 0.2) // small per paper's C=0.25
      val ex    = 0.3 + rnd.nextDouble() * 0.7
      val th    = 0.05 + rnd.nextDouble() * 0.5
      val exact = PoissonBinomial.kappaFast(ex, probs, th)
      val appr  = kappaWith(Poisson, ex, probs, th)
      maxDiff = math.max(maxDiff, math.abs(exact - appr))
    }
    assert(maxDiff <= 2, s"Poisson approximation drifted by $maxDiff")
  }

  test("Translated Poisson tracks DP when Pr(E_i) larger (where plain Poisson degrades)") {
    val rnd = new Random(11)
    var tpErr = 0.0; var n = 0
    for (_ <- 1 to 200) {
      val c     = 20 + rnd.nextInt(60)
      val probs = Array.fill(c)(0.3 + rnd.nextDouble() * 0.6)
      val ex    = 0.5 + rnd.nextDouble() * 0.5
      val th    = 0.05 + rnd.nextDouble() * 0.4
      val exact = PoissonBinomial.kappaFast(ex, probs, th)
      tpErr += math.abs(exact - kappaWith(TranslatedPoisson, ex, probs, th)); n += 1
    }
    assert(tpErr / n <= 1.0, s"avg translated-Poisson error ${tpErr / n}")
  }

  test("Binomial approximation is exact when all Pr(E_i) equal") {
    val rnd = new Random(12)
    for (_ <- 1 to 200) {
      val c     = 1 + rnd.nextInt(40)
      val p     = 0.05 + rnd.nextDouble() * 0.9
      val probs = Array.fill(c)(p)
      val ex    = 0.3 + rnd.nextDouble() * 0.7
      val th    = 0.05 + rnd.nextDouble() * 0.5
      assert(kappaWith(Binomial, ex, probs, th) == PoissonBinomial.kappaFast(ex, probs, th))
    }
  }

  test("CLT approximation is close to DP for large c") {
    val rnd = new Random(13)
    var maxDiff = 0
    for (_ <- 1 to 50) {
      val c     = 200 + rnd.nextInt(200)
      val probs = Array.fill(c)(0.05 + rnd.nextDouble() * 0.9)
      val ex    = 0.3 + rnd.nextDouble() * 0.7
      val th    = 0.05 + rnd.nextDouble() * 0.5
      val exact = PoissonBinomial.kappaFast(ex, probs, th)
      maxDiff = math.max(maxDiff, math.abs(exact - kappaWith(CLT, ex, probs, th)))
    }
    assert(maxDiff <= 2, s"CLT drifted by $maxDiff")
  }

  test("all approximations return -1 when existence probability below θ") {
    val probs = Array(0.5, 0.5)
    Seq[( Double, Array[Double], Double) => Int](
      kappaWith(Poisson, _, _, _), kappaWith(TranslatedPoisson, _, _, _),
      kappaWith(Binomial, _, _, _), kappaWith(CLT, _, _, _),
      (a, b, c) => kappaAuto(a, b, c)
    ).foreach(f => assert(f(0.05, probs, 0.1) == -1))
  }

  test("all approximations return 0 for an empty support list") {
    val empty = Array.empty[Double]
    assert(kappaWith(Poisson, 1.0, empty, 0.5) == 0)
    assert(kappaWith(TranslatedPoisson, 1.0, empty, 0.5) == 0)
    assert(kappaWith(Binomial, 1.0, empty, 0.5) == 0)
    assert(kappaWith(CLT, 1.0, empty, 0.5) == 0)
    assert(kappaAuto(1.0, empty, 0.5) == 0)
  }

  test("selector condition (1): large c chooses CLT") {
    assert(select(Array.fill(250)(0.5)) == CLT)
    assert(select(Array.fill(200)(0.01)) == CLT)
  }

  test("selector condition (2): small c and small probabilities chooses Poisson") {
    assert(select(Array.fill(20)(0.1)) == Poisson)
    assert(select(Array.fill(99)(0.05)) == Poisson)
  }

  test("selector condition (3): large Σp² chooses Translated Poisson") {
    // c in [B, A) so (2) is skipped; probabilities big enough that Σp² > 1
    assert(select(Array.fill(150)(0.5)) == TranslatedPoisson)
    // c < B but some probability ≥ C also skips (2)
    assert(select(Array.fill(50)(0.9)) == TranslatedPoisson)
  }

  test("selector condition (4): variance ratio near 1 chooses Binomial") {
    // equal probabilities give ratio exactly 1; keep Σp² ≤ 1 and p ≥ C
    val probs = Array.fill(3)(0.5)
    assert(select(probs) == Binomial)
  }

  test("selector condition (5): heterogeneous probabilities fall back to DP") {
    // one large + several tiny probabilities: c < A, maxP ≥ C skips Poisson,
    // Σp² ≤ 1 skips Translated Poisson, variance ratio ≪ 0.9 skips Binomial
    val probs = Array(0.9, 0.05, 0.05)
    val m     = select(probs)
    assert(m == ExactDP, s"got $m")
  }

  test("kappaAuto never deviates far from DP across regimes (avg ≤ 0.2)") {
    val rnd  = new Random(14)
    var err  = 0.0
    val n    = 300
    for (_ <- 1 to n) {
      val c     = 1 + rnd.nextInt(250)
      val probs = Array.fill(c)(math.max(1e-3, rnd.nextDouble()))
      val ex    = 0.3 + rnd.nextDouble() * 0.7
      val th    = 0.05 + rnd.nextDouble() * 0.5
      err += math.abs(kappaAuto(ex, probs, th) - PoissonBinomial.kappaFast(ex, probs, th))
    }
    assert(err / n <= 0.2, s"avg |AP−DP| = ${err / n}")
  }

  test("kappaAuto is kappaWith the selected method, and every method is selected") {
    val rnd  = new Random(15)
    val hits = scala.collection.mutable.Map.empty[Method, Int].withDefaultValue(0)
    for (i <- 1 to 1000) {
      val probs = i % 4 match {
        case 0 => Array.fill(1 + rnd.nextInt(300))(math.max(1e-3, rnd.nextDouble()))
        case 1 => Array.fill(1 + rnd.nextInt(99))(0.001 + rnd.nextDouble() * 0.2)
        case 2 => Array.fill(1 + rnd.nextInt(4))(0.25 + rnd.nextDouble() * 0.25)
        case _ => Array(0.5 + rnd.nextDouble() * 0.45) ++ Array.fill(1 + rnd.nextInt(4))(0.01 + rnd.nextDouble() * 0.09)
      }
      val ex = 0.3 + rnd.nextDouble() * 0.7
      val th = 0.05 + rnd.nextDouble() * 0.5
      val m  = select(probs)
      hits(m) += 1
      assert(kappaAuto(ex, probs, th) == kappaWith(m, ex, probs, th), s"case $i ($m)")
    }
    assert(Seq(CLT, Poisson, TranslatedPoisson, Binomial, ExactDP).forall(hits(_) > 0), hits.toString)
  }
}
