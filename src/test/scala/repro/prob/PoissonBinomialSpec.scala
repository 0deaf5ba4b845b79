package repro.prob

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.baseline.{ProbCore, ProbTruss}
import repro.cliques.FourCliques
import repro.core.{LocalNucleus, ProbPeeling}
import repro.graph.GraphGen
import scala.util.Random

/** Exact Poisson-binomial DP: checked against direct subset enumeration and
  * basic distribution identities. Property-style checks run over seeded
  * random inputs (deterministic across runs) plus a ScalaCheck property.
  */
class PoissonBinomialSpec extends AnyFunSuite {

  /** Ground truth pmf by enumerating all 2^c outcomes. */
  private def bruteForcePmf(probs: Array[Double]): Array[Double] = {
    val c   = probs.length
    val out = new Array[Double](c + 1)
    for (bits <- 0 until (1 << c)) {
      var pr = 1.0; var ones = 0
      for (i <- 0 until c) {
        if (((bits >> i) & 1) == 1) { pr *= probs(i); ones += 1 }
        else pr *= 1 - probs(i)
      }
      out(ones) += pr
    }
    out
  }

  private def randProbs(rnd: Random, maxLen: Int): Array[Double] =
    Array.fill(rnd.nextInt(maxLen + 1))(math.max(1e-3, rnd.nextDouble()))

  test("pmf matches brute-force enumeration (100 seeded cases)") {
    val rnd = new Random(1)
    for (_ <- 1 to 100) {
      val probs = randProbs(rnd, 12)
      val got   = PoissonBinomial.pmf(probs)
      val exp   = bruteForcePmf(probs)
      assert(got.length == exp.length)
      got.zip(exp).foreach { case (g, e) => assert(math.abs(g - e) < 1e-12) }
    }
  }

  test("pmf sums to 1 (ScalaCheck property)") {
    val probsGen = Gen.choose(0, 40).flatMap(n => Gen.listOfN(n, Gen.choose(0.001, 1.0)))
    val prop = Prop.forAll(probsGen) { ps =>
      math.abs(PoissonBinomial.pmf(ps.toArray).sum - 1.0) < 1e-9
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }

  test("tail is non-increasing and starts at 1") {
    val rnd = new Random(2)
    for (_ <- 1 to 100) {
      val t = PoissonBinomial.tail(randProbs(rnd, 30))
      assert(math.abs(t(0) - 1.0) < 1e-9)
      t.sliding(2).foreach {
        case Array(a, b) => assert(a >= b - 1e-12)
        case _           =>
      }
    }
  }

  test("kappa is the argmax over the exact tail") {
    val rnd = new Random(4)
    for (_ <- 1 to 300) {
      val probs  = randProbs(rnd, 15)
      val existP = math.max(0.01, rnd.nextDouble())
      val theta  = math.max(0.05, rnd.nextDouble())
      val got    = PoissonBinomial.kappa(existP, probs, theta)
      val t      = PoissonBinomial.tail(probs)
      if (existP < theta) assert(got == -1)
      else assert(got == (0 to probs.length).filter(k => existP * t(k) >= theta).max)
    }
  }

  test("kappaFast agrees with kappa (small inputs)") {
    val rnd = new Random(5)
    for (_ <- 1 to 300) {
      val probs  = randProbs(rnd, 15)
      val existP = math.max(0.01, rnd.nextDouble())
      val theta  = math.max(0.05, rnd.nextDouble())
      assert(PoissonBinomial.kappaFast(existP, probs, theta) ==
             PoissonBinomial.kappa(existP, probs, theta))
    }
  }

  test("kappaFast agrees with kappa (large inputs, up to c=300)") {
    val rnd = new Random(6)
    for (_ <- 1 to 200) {
      val c     = 1 + rnd.nextInt(300)
      val probs = Array.fill(c)(math.max(1e-3, rnd.nextDouble()))
      val ex    = math.max(0.01, rnd.nextDouble())
      val th    = math.max(0.01, rnd.nextDouble())
      assert(PoissonBinomial.kappaFast(ex, probs, th) == PoissonBinomial.kappa(ex, probs, th))
    }
  }

  test("kappaFast equals the cap-doubling ReferenceKappa bit for bit (random, c ≤ 300, θ ∈ [0, 1])") {
    val rnd = new Random(7)
    for (_ <- 1 to 2000) {
      val c     = rnd.nextInt(301)
      val probs = Array.fill(c)(rnd.nextInt(4) match { case 0 => 0.0; case 1 => 1.0; case _ => rnd.nextDouble() })
      val th    = rnd.nextInt(6) match { case 0 => 0.0; case 1 => 1.0; case _ => rnd.nextDouble() }
      val ex    = if (rnd.nextBoolean()) th else rnd.nextDouble()
      assert(PoissonBinomial.kappaFast(ex, probs, th) == ReferenceKappa.kappa(ex, probs, th),
        s"c=$c θ=$th existProb=$ex")
    }
  }

  test("kappaFast equals ReferenceKappa on degenerate rows: p ∈ {0, 1} (σ² = 0) and c = 1") {
    val rnd = new Random(8)
    val rows = Seq.fill(200)(Array.fill(1 + rnd.nextInt(60))(rnd.nextInt(2).toDouble)) ++
      Seq(0.0, 1e-12, 0.3, 0.5, 1 - 1e-12, 1.0).map(p => Array(p))
    for (probs <- rows; th <- Seq(0.0, 1e-9, 0.1, 0.5, 1.0); ex <- Seq(th, 0.7, 1.0))
      assert(PoissonBinomial.kappaFast(ex, probs, th) == ReferenceKappa.kappa(ex, probs, th),
        s"${probs.mkString(",")} θ=$th existProb=$ex")
  }

  test("kappaFast equals ReferenceKappa on every ℓ scorer call of the six Table 1/2 stand-ins (initial rows and rescorings)") {
    var calls = 0L
    for (ds <- GraphGen.paperDatasets) {
      val in = LocalNucleus.kernelInput(FourCliques.build(GraphGen.dataset(ds)))
      for (theta <- Seq(0.1, 0.2, 0.3)) ProbPeeling.peel(in, theta, (ex, probs, th) => {
        val k = PoissonBinomial.kappaFast(ex, probs, th)
        calls += 1
        assert(k == ReferenceKappa.kappa(ex, probs, th), s"$ds θ=$th c=${probs.length}")
        k
      })
    }
    assert(calls > 0)
  }

  test("kappaFast at θ = 0 is c, and its cap seed is c") {
    val rnd = new Random(9)
    for (_ <- 1 to 200) {
      val probs = randProbs(rnd, 100)
      val ex    = if (rnd.nextBoolean()) 0.0 else rnd.nextDouble()
      assert(PoissonBinomial.kappaFast(ex, probs, 0.0) == probs.length)
      assert(PoissonBinomial.capSeed(ex, probs, 0.0) == probs.length)
    }
  }

  test("the cap seed settles κ in one DP pass on every ℓ, truss and core scorer call of the six Table 1/2 stand-ins") {
    var (calls, secondPass) = (0L, 0L)
    val scorer: ProbPeeling.Scorer = (ex, probs, th) => {
      val k    = PoissonBinomial.kappaFast(ex, probs, th)
      val seed = PoissonBinomial.capSeed(ex, probs, th)
      calls += 1
      if (!(k < seed || seed == probs.length)) secondPass += 1
      k
    }
    for (ds <- GraphGen.paperDatasets) {
      val g = GraphGen.dataset(ds)
      val inputs = Seq(
        LocalNucleus.kernelInput(FourCliques.build(g)), ProbTruss.kernelInput(g), ProbCore.kernelInput(g))
      for (in <- inputs; theta <- Seq(0.1, 0.2, 0.3)) ProbPeeling.peel(in, theta, scorer)
    }
    assert(calls > 0 && secondPass == 0, s"$secondPass of $calls calls needed a second DP pass")
  }

  test("kappa edge cases") {
    assert(PoissonBinomial.kappa(1.0, Array.empty[Double], 0.5) == 0)
    assert(PoissonBinomial.kappa(0.4, Array.empty[Double], 0.5) == -1)
    assert(PoissonBinomial.kappaFast(1.0, Array.empty[Double], 0.5) == 0)
    assert(PoissonBinomial.kappaFast(0.4, Array.empty[Double], 0.5) == -1)
    assert(PoissonBinomial.kappa(1.0, Array.fill(5)(1.0), 0.9) == 5)
    assert(PoissonBinomial.kappaFast(1.0, Array.fill(5)(1.0), 0.9) == 5)
    assert(PoissonBinomial.kappaFast(1.0, Array.fill(8)(0.5), 1e-9) == 8)
  }

  test("pmf of a single Bernoulli") {
    val m = PoissonBinomial.pmf(Array(0.3))
    assert(math.abs(m(0) - 0.7) < 1e-12 && math.abs(m(1) - 0.3) < 1e-12)
  }

  test("pmf of identical probabilities is Binomial") {
    val n = 10; val p = 0.37
    val m = PoissonBinomial.pmf(Array.fill(n)(p))
    def choose(n: Int, k: Int): Double = (1 to k).map(i => (n - i + 1).toDouble / i).product
    for (k <- 0 to n) {
      val b = choose(n, k) * math.pow(p, k) * math.pow(1 - p, n - k)
      assert(math.abs(m(k) - b) < 1e-10, s"k=$k")
    }
  }
}
