package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cliques.Triangles
import repro.graph.{GraphGen, ProbGraph}
import repro.prob.{BruteForce, Sampler}
import scala.util.Random

/** g-NuDecomp and w-NuDecomp (Algorithms 2 and 3): Monte-Carlo estimates
  * against exact possible-world enumeration on small graphs, and the
  * containment chain g ⊆ w ⊆ ℓ.
  */
class GlobalWeaklySpec extends AnyFunSuite {

  private def probK4(p: Double): ProbGraph =
    ProbGraph(for { a <- 0 until 4; b <- a + 1 until 4 } yield (a.toLong, b.toLong, p))

  test("Hoeffding sample bound matches the paper's n = 200 > bound at ε = δ = 0.1") {
    val n = Sampler.hoeffdingSamples(0.1, 0.1)
    assert(n == 150) // ⌈ln(20)/0.02⌉ = ⌈149.8⌉
    assert(200 > n)
  }

  test("g and w reject a Monte-Carlo sample size below 1") {
    val local = LocalNucleus.decompose(probK4(0.9), theta = 0.3, LocalNucleus.DP)
    for (n <- Seq(0, -1)) {
      intercept[IllegalArgumentException](GlobalNucleus.decompose(local, n, seed = 1))
      intercept[IllegalArgumentException](GlobalNucleus.decomposeAt(local, 1, n, seed = 1))
      intercept[IllegalArgumentException](WeaklyGlobalNucleus.decompose(local, n, seed = 1))
      intercept[IllegalArgumentException](WeaklyGlobalNucleus.decomposeAt(local, 1, n, seed = 1))
    }
  }

  test("Lemma 4 over 100 seeds: g and w tails are within ε of brute force on ≥ 90") {
    val (eps, delta) = (0.1, 0.1)
    val n     = Sampler.hoeffdingSamples(eps, delta)
    val g     = probK4(0.9)
    val local = LocalNucleus.decompose(g, theta = 0.1, LocalNucleus.DP)
    // every triangle's exact g and w tail is 0.9^6: the world must be the whole K4
    val exactG = BruteForce.globalTail(g, 0, 1, 2, 1)
    val exactW = BruteForce.weaklyGlobalTail(g, 0, 1, 2, 1)
    assert(math.abs(exactG - math.pow(0.9, 6)) < 1e-12 && math.abs(exactW - exactG) < 1e-12)
    def within(nuclei: Seq[GlobalNucleus.ProbNucleus], exact: Double): Boolean =
      nuclei.size == 1 && math.abs(nuclei.head.minTail - exact) <= eps
    val gHits = (0 until 100).count(s => within(GlobalNucleus.decomposeAt(local, 1, n, seed = s), exactG))
    val wHits = (0 until 100).count(s => within(WeaklyGlobalNucleus.decomposeAt(local, 1, n, seed = s), exactW))
    // Hoeffding: a miss has probability at most δ per seed
    assert(gHits >= 90, s"g within ε on $gHits of 100 seeds")
    assert(wHits >= 90, s"w within ε on $wHits of 100 seeds")
  }

  test("g's and w's world counts allocate only their counts array, at n = 64 as at n = 640") {
    import repro.Allocation.{array, measure}
    val local = LocalNucleus.decompose(GraphGen.dataset("krogan"), 0.1, LocalNucleus.DP)
    // the largest candidate: krogan's biggest ℓ-nucleus at level 1
    val ws = new DetNucleus.WorldStructure(local.graph.subgraph(local.nucleiAt(1).maxBy(_.edges.length).edges))
    val counts = array(4, ws.cs.nTriangles)
    def bytes(k: Int, n: Int): (Long, Long) =
      (measure(GlobalNucleus.globalCounts(ws, k, n, 7))._2, measure(WeaklyGlobalNucleus.weaklyCounts(ws, k, n, 7))._2)
    for (_ <- 1 to 3; k <- 1 to 2; n <- Seq(64, 640)) bytes(k, n) // class loading and compilation
    for (k <- 1 to 2) {
      val ((g64, w64), (g640, w640)) = (bytes(k, 64), bytes(k, 640))
      for ((what, small, large) <- Seq(("g", g64, g640), ("w", w64, w640))) {
        assert(large <= counts + 256, s"$what k=$k: $large bytes at n = 640; its counts take $counts")
        assert(large - small <= 64, s"$what k=$k: $small bytes at n = 64, $large at n = 640")
      }
    }
    // a per-batch array of one word per edge would cost more than both slacks
    assert(9 * array(8, ws.graph.m) > 256, s"${ws.graph.m} edges are too few to show a per-batch array")
  }

  test("sampled worlds follow edge probabilities (law of large numbers)") {
    val g     = probK4(0.7)
    val worlds = Sampler.sampleWorlds(g, 2000, seed = 8)
    val freq  = worlds.map(_.m).sum.toDouble / (2000 * 6)
    assert(math.abs(freq - 0.7) < 0.03, s"edge frequency $freq")
  }

  test("single K4: g and w tails match brute force (K4 world must be complete)") {
    val p = 0.9
    val g = probK4(p)
    // exact: a world is a 1-nucleus iff all 6 edges are present
    val exact = math.pow(p, 6)
    assert(math.abs(BruteForce.globalTail(g, 0, 1, 2, 1) - exact) < 1e-12)
    assert(math.abs(BruteForce.weaklyGlobalTail(g, 0, 1, 2, 1) - exact) < 1e-12)
  }

  test("g-NuDecomp accepts a high-probability K4 and reports a calibrated tail") {
    val p     = 0.95
    val g     = probK4(p)
    val local = LocalNucleus.decompose(g, theta = 0.3, LocalNucleus.DP)
    assert(local.kMax == 1)
    val nuclei = GlobalNucleus.decomposeAt(local, k = 1, nSamples = 800, seed = 5)
    assert(nuclei.size == 1)
    val exact = math.pow(p, 6) // ≈ 0.735
    assert(math.abs(nuclei.head.minTail - exact) < 0.06,
      s"MC tail ${nuclei.head.minTail} vs exact $exact")
    assert(nuclei.head.vertices.length == 4 && nuclei.head.edges.length == 6)
  }

  test("g-NuDecomp rejects when the exact tail is clearly below θ") {
    val p     = 0.6 // tail = 0.6^6 ≈ 0.047
    val g     = probK4(p)
    val local = LocalNucleus.decompose(g, theta = 0.04, LocalNucleus.DP)
    assert(local.kMax == 1)
    // θ = 0.4 for the global check is far above 0.047: must reject
    val strict = local.copy(theta = 0.4)
    assert(GlobalNucleus.decomposeAt(strict, 1, nSamples = 500, seed = 6).isEmpty)
  }

  test("w-NuDecomp matches brute force on a K4 + pendant-triangle graph") {
    // K4 on 0..3 with p = 0.9; a triangle (3,4,5) with p = 0.9 hangs off it
    val es = (for { a <- 0 until 4; b <- a + 1 until 4 } yield (a.toLong, b.toLong, 0.9)) ++
             Seq((3L, 4L, 0.9), (3L, 5L, 0.9), (4L, 5L, 0.9))
    val g     = ProbGraph(es)
    val local = LocalNucleus.decompose(g, theta = 0.3, LocalNucleus.DP)
    assert(local.kMax == 1)
    val ws = WeaklyGlobalNucleus.decomposeAt(local, 1, nSamples = 1000, seed = 7)
    // exact w-tail of a K4 triangle: all 6 K4 edges present = 0.9^6 ≈ 0.531
    val exact = math.pow(0.9, 6)
    assert(ws.size == 1)
    assert(math.abs(ws.head.minTail - exact) < 0.06)
    // the pendant triangle is not in any ℓ-(1,θ)-nucleus, so not in the output
    assert(!ws.head.vertices.contains(5L))
  }

  test("containment: every g-nucleus vertex/edge set is inside some w-nucleus, inside some ℓ-nucleus") {
    // Checks g ⊆ ℓ and w ⊆ ℓ only: g and w estimate their tails from
    // different worlds, so a g-nucleus need not lie inside a w-nucleus
    // here. The p ≡ 1 test below checks g ⊆ w exactly.
    val rnd = new Random(909)
    for (trial <- 1 to 5) {
      val es = for { a <- 0 until 7; b <- a + 1 until 7 if rnd.nextDouble() < 0.8 }
        yield (a.toLong, b.toLong, 0.6 + rnd.nextDouble() * 0.4)
      val g     = ProbGraph(es)
      val local = LocalNucleus.decompose(g, theta = 0.2, LocalNucleus.DP)
      if (local.kMax >= 1) {
        for (k <- 1 to local.kMax) {
          val gs = GlobalNucleus.decomposeAt(local, k, 400, seed = trial)
          val ws = WeaklyGlobalNucleus.decomposeAt(local, k, 400, seed = trial)
          val lEdges = local.nucleiAt(k).map(_.edges.map { case (u, v, _) =>
            (g.labels(u), g.labels(v)) }.toSet)
          def contained(inner: Set[(Long, Long)], outers: Seq[Set[(Long, Long)]]) =
            inner.isEmpty || outers.exists(o => inner.subsetOf(o))
          gs.foreach { nucleus =>
            val ge = nucleus.edges.map { case (u, v, _) => (u, v) }.toSet
            assert(contained(ge, lEdges), s"trial $trial k=$k: g-nucleus outside ℓ-nuclei")
          }
          ws.foreach { nucleus =>
            val we = nucleus.edges.map { case (u, v, _) => (u, v) }.toSet
            assert(contained(we, lEdges), s"trial $trial k=$k: w-nucleus outside ℓ-nuclei")
          }
        }
      }
    }
  }

  test("p ≡ 1: ℓ is the deterministic decomposition, w-nuclei are the ℓ-nuclei, g-nuclei are k-nuclei inside them") {
    val rnd = new Random(2718)
    var (levels, gSeen, wSeen) = (0, 0, 0)
    def labelEdges(es: Array[(Long, Long, Double)]): Set[(Long, Long)] = es.map { case (u, v, _) => (u, v) }.toSet
    for (trial <- 1 to 20) {
      val n = 7 + rnd.nextInt(5)
      val g = ProbGraph(for { a <- 0 until n; b <- a + 1 until n if rnd.nextDouble() < 0.7 }
        yield (a.toLong, b.toLong, 1.0))
      val local = LocalNucleus.decompose(g, theta = 0.5, LocalNucleus.DP)
      assert(local.nu.toSeq == DetNucleus.decompose(g)._2.toSeq, s"trial $trial: ℓ ν")
      for (k <- 1 to local.kMax) {
        // every world is the whole candidate, so n = 3 needs no luck
        val ls = local.nucleiAt(k).map(nu => labelEdges(nu.edges.map { case (u, v, p) => (g.labels(u), g.labels(v), p) }))
        val ws = WeaklyGlobalNucleus.decomposeAt(local, k, 3, seed = trial)
        val gs = GlobalNucleus.decomposeAt(local, k, 3, seed = trial)
        assert(ws.forall(_.minTail == 1.0), s"trial $trial k=$k: w tails")
        assert(ws.map(w => labelEdges(w.edges)).sortBy(_.toSeq.sorted.toString) == ls.sortBy(_.toSeq.sorted.toString),
          s"trial $trial k=$k: w-nuclei differ from the ℓ-nuclei")
        gs.foreach { gn =>
          assert(gn.minTail == 1.0 && DetNucleus.isKNucleus(gn.toGraph, k), s"trial $trial k=$k: g-nucleus")
          assert(ws.exists(w => labelEdges(gn.edges).subsetOf(labelEdges(w.edges))), s"trial $trial k=$k: g outside w")
        }
        levels += 1; gSeen += gs.size; wSeen += ws.size
      }
    }
    info(s"$levels levels, $gSeen g-nuclei, $wSeen w-nuclei")
    assert(levels >= 20 && gSeen >= 20 && wSeen >= 20, s"$levels levels, $gSeen g-nuclei, $wSeen w-nuclei")
  }

  test("w estimates are close to brute force per triangle (randomized)") {
    val rnd = new Random(303)
    for (trial <- 1 to 3) {
      val es = for { a <- 0 until 5; b <- a + 1 until 5 if rnd.nextDouble() < 0.95 }
        yield (a.toLong, b.toLong, 0.5 + rnd.nextDouble() * 0.5)
      val g = ProbGraph(es)
      if (g.edges.length <= 12) {
        val local = LocalNucleus.decompose(g, theta = 0.05, LocalNucleus.DP)
        for (k <- 1 to local.kMax) {
          val ws = WeaklyGlobalNucleus.decomposeAt(local, k, 1500, seed = 11 + trial)
          ws.foreach { nucleus =>
            // the reported min tail must be within MC tolerance of the exact
            // min over the nucleus's triangles
            val ng = nucleus.toGraph
            val nt = Triangles.enumerate(ng)
            val triples = (0 until nt.size).map(t => (ng.labels(nt.u(t)), ng.labels(nt.v(t)), ng.labels(nt.w(t))))
            // the nucleus's triangles are a subset of all triples formed by
            // its edges, so its MC min-tail must be ≥ the exact min over all
            // triples (up to MC tolerance), and ≤ the exact max likewise
            val exacts = triples.map { case (a, b, c) =>
              BruteForce.weaklyGlobalTail(g, a, b, c, k) }
            assert(nucleus.minTail >= exacts.min - 0.1,
              s"trial $trial k=$k: MC ${nucleus.minTail} vs exact min ${exacts.min}")
            assert(nucleus.minTail <= exacts.max + 0.1,
              s"trial $trial k=$k: MC ${nucleus.minTail} vs exact max ${exacts.max}")
          }
        }
      }
    }
  }
}
