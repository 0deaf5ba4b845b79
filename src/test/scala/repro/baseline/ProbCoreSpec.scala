package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, ProbGraph}
import repro.prob.PoissonBinomial
import scala.util.Random

/** Probabilistic (k,η)-core (Bonchi et al.): deterministic degeneracy vs a
  * reference k-core, η-degree semantics, and threshold monotonicity.
  */
class ProbCoreSpec extends AnyFunSuite {

  private def referenceCore(n: Int, edges: Seq[(Int, Int)]): Array[Int] = {
    val alive = Array.fill(n)(true)
    val deg   = new Array[Int](n)
    edges.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    val core = new Array[Int](n)
    var k = 0; var remaining = n
    while (remaining > 0) {
      val peelable = (0 until n).filter(v => alive(v) && deg(v) <= k)
      if (peelable.isEmpty) k += 1
      else peelable.foreach { v =>
        core(v) = k; alive(v) = false; remaining -= 1
        edges.foreach { case (a, b) =>
          if (a == v && alive(b)) deg(b) -= 1
          if (b == v && alive(a)) deg(a) -= 1
        }
      }
    }
    core
  }

  test("all-certain graph reduces to classic k-core") {
    val rnd = new Random(31)
    for (trial <- 1 to 15) {
      val n = 8 + rnd.nextInt(12)
      val pairs = for { a <- 0 until n; b <- a + 1 until n if rnd.nextDouble() < 0.35 } yield (a, b)
      val g   = ProbGraph(pairs.map { case (a, b) => (a.toLong, b.toLong, 1.0) })
      val dec = ProbCore.decompose(g, eta = 0.5)
      // map back: ProbGraph may renumber if some vertex is isolated
      val expected = referenceCore(g.n, g.edges.map { case (u, v, _) => (u, v) }.toSeq)
      assert(dec.coreNumber.toSeq == expected.toSeq, s"trial $trial")
    }
  }

  test("η-degree of a single vertex matches the Poisson-binomial tail") {
    // star: centre 0 with 4 leaves of varying probabilities
    val probs = Array(0.9, 0.8, 0.2, 0.6)
    val es    = probs.zipWithIndex.map { case (p, i) => (0L, (i + 1).toLong, p) }
    val g     = ProbGraph(es.toIndexedSeq)
    val eta   = 0.3
    val dec   = ProbCore.decompose(g, eta)
    val centre = java.util.Arrays.binarySearch(g.labels, 0L)
    // leaves are peeled first (η-degree ≤ 1); centre's final score is its
    // η-degree clamped by the cascade — initial value is the clean check
    val expectedInitial = PoissonBinomial.kappaFast(1.0, probs, eta)
    assert(dec.coreNumber(centre) <= expectedInitial)
  }

  test("higher η gives pointwise smaller core numbers") {
    val rnd = new Random(32)
    val es = for { a <- 0 until 15; b <- a + 1 until 15 if rnd.nextDouble() < 0.4 }
      yield (a.toLong, b.toLong, 0.3 + rnd.nextDouble() * 0.7)
    val g  = ProbGraph(es)
    val lo = ProbCore.decompose(g, 0.1)
    val hi = ProbCore.decompose(g, 0.6)
    lo.coreNumber.indices.foreach(v => assert(hi.coreNumber(v) <= lo.coreNumber(v)))
  }

  test("coresAt returns connected dense components") {
    // two disjoint near-certain K4s
    val es = (for { a <- 0 until 4; b <- a + 1 until 4 } yield (a.toLong, b.toLong, 0.99)) ++
             (for { a <- 10 until 14; b <- a + 1 until 14 } yield (a.toLong, b.toLong, 0.99))
    val dec = ProbCore.decompose(ProbGraph(es), eta = 0.5)
    val cores = dec.coresAt(dec.kMax)
    assert(dec.kMax >= 2)
    assert(cores.size == 2)
    cores.foreach(c => assert(c.n == 4 && c.m == 6))
  }

  test("empty-ish graph: all core numbers 0 when η is unreachable") {
    val g   = ProbGraph(Seq((0L, 1L, 0.2), (1L, 2L, 0.2)))
    val dec = ProbCore.decompose(g, eta = 0.9)
    assert(dec.coreNumber.forall(_ == 0))
  }

  test("kernelInput and the kept edges of coresAt equal the edge-tuple arrays on the 9 stand-ins") {
    def bits(xs: Array[Double]): Array[Long] = xs.map(java.lang.Double.doubleToRawLongBits)
    for (ds <- GraphGen.paperDatasets ++ Seq("pokec_Normal", "pokec_Pareto", "enwiki")) {
      val g     = GraphGen.dataset(ds)
      val edges = g.edges
      val ends: Array[Int]   = edges.flatMap(e => Array(e._1, e._2))
      val prE: Array[Double] = edges.flatMap(e => Array(e._3, e._3))
      val in = ProbCore.kernelInput(g)
      assert(in.itemProb.sameElements(Array.fill(g.n)(1.0)), s"$ds: itemProb")
      assert(in.groupItems.flatten.sameElements(ends), s"$ds: ends")
      assert(bits(in.groupPrE.flatten).sameElements(bits(prE)), s"$ds: prE")
      val dec = ProbCore.decompose(g, 0.2)
      for (k <- 0 to dec.kMax + 1) {
        val want = edges.filter { case (u, v, _) => dec.coreNumber(u) >= k && dec.coreNumber(v) >= k }
        // the cores' edges in g's dense ids: both graphs number vertices in label order
        val kept = dec.coresAt(k).flatMap { c =>
          def id(x: Int): Int = java.util.Arrays.binarySearch(g.labels, c.labels(x))
          c.edges.map { case (a, b, p) => (id(a), id(b), p) }
        }.sortBy(e => (e._1, e._2))
        assert(kept.sameElements(want), s"$ds: kept edges at k = $k")
      }
    }
  }
}
