package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cliques.FourCliques
import repro.cliques.Incidence._
import repro.graph.{GraphGen, ProbGraph}
import repro.prob.{BruteForce, PoissonBinomial}
import scala.util.Random

/** ℓ-NuDecomp (Algorithm 1): initial scores against exact possible-world
  * enumeration, the full peeling against an independent fixpoint reference,
  * and structural properties of the produced nuclei.
  */
class LocalNucleusSpec extends AnyFunSuite {

  private def randomGraph(rnd: Random, n: Int, pEdge: Double): ProbGraph = {
    val es = for { a <- 0 until n; b <- a + 1 until n if rnd.nextDouble() < pEdge }
      yield (a.toLong, b.toLong, 0.1 + rnd.nextDouble() * 0.9)
    ProbGraph(es)
  }

  test("initial κ matches brute-force possible-world enumeration") {
    val rnd = new Random(101)
    var checked = 0
    for (_ <- 1 to 12) {
      val g = randomGraph(rnd, 6, 0.75)
      if (g.edges.length <= 15) {
        val cs    = FourCliques.build(g)
        val theta = 0.05 + rnd.nextDouble() * 0.4
        val in    = LocalNucleus.kernelInput(cs)
        for (t <- 0 until cs.nTriangles) {
          val probs = cs.triCliques(t).map(c => cs.prE(c, t))
          val kappa = PoissonBinomial.kappaFast(cs.tris.prob(t), probs, theta)
          // brute force: largest k with Pr(X ≥ k) ≥ θ
          val (a, b, c0) = (g.labels(cs.tris.u(t)), g.labels(cs.tris.v(t)), g.labels(cs.tris.w(t)))
          val bfKappa = (0 to cs.support(t))
            .filter(k => BruteForce.localTail(g, a, b, c0, k) >= theta - 1e-12)
            .lastOption.getOrElse(-1)
          assert(kappa == bfKappa, s"triangle ($a,$b,$c0) θ=$theta")
          checked += 1
        }
      }
    }
    assert(checked > 20, s"only $checked triangles checked")
  }

  /** Independent reference: for each k, iteratively delete triangles whose
    * tail probability over the surviving cliques drops below θ; ν = max k
    * at which the triangle survives.
    */
  private def referenceNu(g: ProbGraph, theta: Double): Array[Int] = {
    val cs = FourCliques.build(g)
    val nu = Array.fill(cs.nTriangles)(-1)
    var k  = 0
    var anyAlive = true
    while (anyAlive) {
      val alive = Array.fill(cs.nTriangles)(true)
      var changed = true
      while (changed) {
        changed = false
        for (t <- 0 until cs.nTriangles if alive(t)) {
          val probs = cs.triCliques(t)
            .filter(c => cs.members(c).forall(alive))
            .map(c => cs.prE(c, t))
          if (PoissonBinomial.kappaFast(cs.tris.prob(t), probs, theta) < k) {
            alive(t) = false; changed = true
          }
        }
      }
      anyAlive = alive.exists(identity)
      for (t <- 0 until cs.nTriangles if alive(t)) nu(t) = k
      k += 1
      if (k > 50) anyAlive = false
    }
    nu
  }

  test("peeling ν matches the fixpoint reference on random graphs") {
    val rnd = new Random(202)
    for (trial <- 1 to 15) {
      val g     = randomGraph(rnd, 9, 0.6)
      val theta = 0.05 + rnd.nextDouble() * 0.3
      val dec   = LocalNucleus.decompose(g, theta, LocalNucleus.DP)
      assert(dec.nu.toSeq == referenceNu(g, theta).toSeq, s"trial $trial θ=$theta")
    }
  }

  test("all-certain graph reduces to the deterministic decomposition") {
    val rnd = new Random(303)
    for (_ <- 1 to 10) {
      val base = randomGraph(rnd, 10, 0.5)
      val g    = ProbGraph(base.edges.toIndexedSeq.map { case (u, v, _) =>
        (base.labels(u), base.labels(v), 1.0) })
      val dec      = LocalNucleus.decompose(g, theta = 0.7, LocalNucleus.DP)
      val (_, det) = DetNucleus.decompose(g)
      assert(dec.nu.toSeq == det.toSeq)
    }
  }

  test("symmetric complete graph: ν equals the hand-computed κ") {
    // K6 with uniform p: all triangles identical, no cascade, ν = initial κ
    val p = 0.9
    val g = ProbGraph(for { a <- 0 until 6; b <- a + 1 until 6 } yield (a.toLong, b.toLong, p))
    val theta = 0.2
    val dec   = LocalNucleus.decompose(g, theta, LocalNucleus.DP)
    val prE   = Array.fill(3)(p * p * p) // 3 apexes, each adds 3 edges
    val expected = PoissonBinomial.kappaFast(p * p * p, prE, theta)
    assert(dec.nu.forall(_ == expected))
  }

  test("ν never exceeds the initial κ and is ≥ -1") {
    val rnd = new Random(404)
    for (_ <- 1 to 10) {
      val g   = randomGraph(rnd, 12, 0.4)
      val dec = LocalNucleus.decompose(g, 0.2, LocalNucleus.DP)
      dec.nu.indices.foreach { t =>
        assert(dec.nu(t) <= dec.initialKappa(t) && dec.nu(t) >= -1)
      }
    }
  }

  test("θ monotonicity: larger θ gives pointwise smaller ν") {
    val rnd = new Random(505)
    val g   = randomGraph(rnd, 12, 0.5)
    val lo  = LocalNucleus.decompose(g, 0.1, LocalNucleus.DP)
    val hi  = LocalNucleus.decompose(g, 0.5, LocalNucleus.DP)
    lo.nu.indices.foreach(t => assert(hi.nu(t) <= lo.nu(t)))
  }

  test("two disjoint planted K5s: two nuclei at kMax, each 5 vertices 10 edges") {
    val es = (for { a <- 0 until 5; b <- a + 1 until 5 } yield (a.toLong, b.toLong, 0.95)) ++
             (for { a <- 10 until 15; b <- a + 1 until 15 } yield (a.toLong, b.toLong, 0.95))
    val dec = LocalNucleus.decompose(ProbGraph(es), 0.1, LocalNucleus.DP)
    assert(dec.kMax >= 1)
    val nuclei = dec.nucleiAt(dec.kMax)
    assert(nuclei.size == 2)
    nuclei.foreach { nuc =>
      assert(nuc.nVertices == 5 && nuc.nEdges == 10)
    }
  }

  test("nuclei are unions of 4-cliques (every edge lies in a clique of the nucleus)") {
    val rnd = new Random(606)
    val g   = randomGraph(rnd, 12, 0.55)
    val dec = LocalNucleus.decompose(g, 0.15, LocalNucleus.DP)
    for (k <- 1 to dec.kMax; nuc <- dec.nucleiAt(k)) {
      val sub = ProbGraph(nuc.edges.toIndexedSeq.map { case (u, v, p) =>
        (g.labels(u), g.labels(v), p) })
      val cs = FourCliques.build(sub)
      val coveredEdges = scala.collection.mutable.HashSet.empty[(Int, Int)]
      for (t <- 0 until cs.nTriangles if cs.support(t) > 0) {
        coveredEdges += ((cs.tris.u(t), cs.tris.v(t)))
        coveredEdges += ((cs.tris.u(t), cs.tris.w(t)))
        coveredEdges += ((cs.tris.v(t), cs.tris.w(t)))
      }
      assert(coveredEdges.size == sub.m, s"k=$k nucleus has an edge outside all 4-cliques")
    }
  }

  test("AP decomposition stays close to DP on the krogan stand-in") {
    val g  = GraphGen.dataset("krogan", scale = 0.3)
    val cs = FourCliques.build(g)
    val dp = LocalNucleus.decompose(g, cs, 0.2, LocalNucleus.DP)
    val ap = LocalNucleus.decompose(g, cs, 0.2, LocalNucleus.AP)
    val n  = dp.nu.length
    if (n > 0) {
      // at scale 0.3 the structure is tiny (c_Δ ≤ ~7) and a ±1 κ slip on a
      // quarter of triangles is the discrete worst case; the full-scale
      // accuracy shape (avg error ≲ 0.01) is asserted in bench Table2Bench
      val avgErr = dp.nu.indices.map(i => math.abs(dp.nu(i) - ap.nu(i))).sum.toDouble / n
      assert(avgErr <= 0.4, s"avg |AP−DP| = $avgErr over $n triangles")
      val maxErr = dp.nu.indices.map(i => math.abs(dp.nu(i) - ap.nu(i))).max
      assert(maxErr <= 2, s"max |AP−DP| = $maxErr")
    }
  }

  test("relabelling vertices and reordering edges changes neither ν nor the nuclei") {
    val rnd = new Random(707)
    var withNuclei = 0
    for (trial <- 1 to 20) {
      val g     = randomGraph(rnd, 10, 0.75)
      val theta = 0.02 + rnd.nextDouble() * 0.2
      val perm  = rnd.shuffle(g.labels.toSeq).zip(g.labels).toMap // old label -> new label
      val h = ProbGraph(rnd.shuffle(g.edges.toSeq).map { case (u, v, p) =>
        (perm(g.labels(u)), perm(g.labels(v)), p) })

      def byLabels(d: LocalNucleus.Decomposition, relabel: Long => Long) = {
        val t = d.structure.tris
        val nu = (0 until t.size).map { i =>
          Seq(t.u(i), t.v(i), t.w(i)).map(x => relabel(d.graph.labels(x))).sorted -> d.nu(i)
        }.toMap
        val nuclei = d.nucleiAt(d.kMax).map(_.vertices.map(x => relabel(d.graph.labels(x))).toSet).toSet
        (d.kMax, nu, nuclei)
      }
      val (kG, nuG, nucleiG) = byLabels(LocalNucleus.decompose(g, theta, LocalNucleus.DP), perm)
      val (kH, nuH, nucleiH) = byLabels(LocalNucleus.decompose(h, theta, LocalNucleus.DP), identity)
      assert(kG == kH, s"trial $trial")
      assert(nuG == nuH, s"trial $trial: ν by label triple")
      assert(nucleiG == nucleiH, s"trial $trial: nuclei at kMax = $kG")
      if (kG >= 1 && nucleiG.nonEmpty) withNuclei += 1
    }
    assert(withNuclei >= 5, s"only $withNuclei graphs had nuclei at k ≥ 1")
  }

  test("subgraph of an ℓ-nucleus's triangles is the graph of its edges in labels (krogan, dblp)") {
    def same(a: ProbGraph, b: ProbGraph): Boolean =
      a.labels.sameElements(b.labels) && a.offsets.sameElements(b.offsets) &&
        a.adj.sameElements(b.adj) && a.adjProb.sameElements(b.adjProb)
    for (name <- Seq("krogan", "dblp")) {
      val g = GraphGen.dataset(name)
      val d = LocalNucleus.decompose(g, theta = 0.1, LocalNucleus.DP)
      val nuclei = d.allNuclei
      assert(d.kMax >= 2 && nuclei.nonEmpty, s"$name: kMax ${d.kMax}")
      nuclei.foreach { n =>
        val byHand = ProbGraph(n.edges.toIndexedSeq.map { case (u, v, p) => (g.labels(u), g.labels(v), p) })
        assert(same(d.graph.subgraph(n.edges), byHand), s"$name k=${n.k}")
      }
    }
  }

  test("θ larger than every triangle probability empties the decomposition") {
    val g   = ProbGraph(Seq((0L, 1L, 0.3), (1L, 2L, 0.3), (0L, 2L, 0.3)))
    val dec = LocalNucleus.decompose(g, 0.9, LocalNucleus.DP)
    assert(dec.nu.forall(_ == -1) && dec.allNuclei.isEmpty)
  }
}
