package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.ProbGraph
import repro.prob.{Sampler, WorldRng}
import scala.util.Random

/** Deterministic (3,4)-nucleus decomposition, the k-nucleus predicate, and
  * the per-world mask path checked against rebuilding each world.
  */
class DetNucleusSpec extends AnyFunSuite {

  private def complete(n: Int): ProbGraph =
    ProbGraph(for { a <- 0 until n; b <- a + 1 until n } yield (a.toLong, b.toLong, 1.0))

  test("K_n: every triangle has ν_det = n − 3") {
    for (n <- 4 to 8) {
      val (_, nu) = DetNucleus.decompose(complete(n))
      assert(nu.forall(_ == n - 3), s"n=$n")
    }
  }

  test("triangle with no 4-clique has ν_det = 0") {
    val tri = ProbGraph(Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (0L, 2L, 1.0)))
    val (cs, nu) = DetNucleus.decompose(tri)
    assert(cs.nTriangles == 1 && nu(0) == 0)
  }

  test("two K5s sharing a vertex decompose independently to ν = 2") {
    val edges = (for { a <- 0 until 5; b <- a + 1 until 5 } yield (a.toLong, b.toLong, 1.0)) ++
                (for { a <- 4 until 9; b <- a + 1 until 9 } yield (a.toLong, b.toLong, 1.0))
    val (_, nu) = DetNucleus.decompose(ProbGraph(edges))
    assert(nu.forall(_ == 2))
  }

  test("K5 with a pendant K4 attached by one shared triangle") {
    // K5 on 0..4; K4 on {3,4,5,6} shares edge (3,4)
    val edges = (for { a <- 0 until 5; b <- a + 1 until 5 } yield (a.toLong, b.toLong, 1.0)) ++
                Seq((3L, 5L, 1.0), (3L, 6L, 1.0), (4L, 5L, 1.0), (4L, 6L, 1.0), (5L, 6L, 1.0))
    val (cs, nu) = DetNucleus.decompose(ProbGraph(edges))
    // triangles fully inside the K5 keep ν = 2; K4-only triangles get ν = 1
    for (t <- 0 until cs.nTriangles) {
      val vs = Set(cs.tris.u(t), cs.tris.v(t), cs.tris.w(t))
      if (vs.forall(_ <= 4)) assert(nu(t) == 2, s"K5 triangle $vs")
      else assert(nu(t) == 1, s"K4 triangle $vs")
    }
  }

  test("isKNucleus: K_{k+3} is a k-nucleus but not a (k+1)-nucleus") {
    // k ≥ 1: for k = 0 Definition 3's cliqueness precondition (union of
    // 4-cliques) makes K3 a degenerate non-nucleus; the paper's Lemma 2
    // treats 0-nuclei as plain connectivity instead (see HardnessSpec).
    for (k <- 1 to 4) {
      val g = complete(k + 3)
      assert(DetNucleus.isKNucleus(g, k), s"K${k + 3} should be a $k-nucleus")
      assert(!DetNucleus.isKNucleus(g, k + 1), s"K${k + 3} is not a ${k + 1}-nucleus")
    }
  }

  test("isKNucleus: graph with a dangling edge is not a nucleus (cliqueness)") {
    val g = ProbGraph(
      (for { a <- 0 until 4; b <- a + 1 until 4 } yield (a.toLong, b.toLong, 1.0)) :+ (3L, 9L, 1.0))
    assert(!DetNucleus.isKNucleus(g, 1))
  }

  test("isKNucleus: two disjoint K4s are not s-connected") {
    val edges = (for { a <- 0 until 4; b <- a + 1 until 4 } yield (a.toLong, b.toLong, 1.0)) ++
                (for { a <- 10 until 14; b <- a + 1 until 14 } yield (a.toLong, b.toLong, 1.0))
    assert(!DetNucleus.isKNucleus(ProbGraph(edges), 1))
  }

  test("isKNucleus: empty and triangle-only graphs are not nuclei") {
    val tri = ProbGraph(Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (0L, 2L, 1.0)))
    assert(!DetNucleus.isKNucleus(tri, 0))
  }

  test("Lemma 3 (exhaustive, k=1): the only 1-nucleus on 4 vertices is K4") {
    // all graphs on 4 labelled vertices: 2^6 edge subsets
    val pairs = for { a <- 0 until 4; b <- a + 1 until 4 } yield (a.toLong, b.toLong)
    var nucleusCount = 0
    for (bits <- 1 until 64) {
      val es = pairs.zipWithIndex.collect { case (e, i) if ((bits >> i) & 1) == 1 => (e._1, e._2, 1.0) }
      val g  = ProbGraph(es)
      if (DetNucleus.isKNucleus(g, 1)) {
        nucleusCount += 1
        assert(es.size == 6, "a 1-nucleus on ≤4 vertices must be the full K4")
      }
    }
    assert(nucleusCount == 1)
  }

  test("Lemma 3 (randomized, k=2): no proper subgraph of K5 is a 2-nucleus") {
    val pairs = for { a <- 0 until 5; b <- a + 1 until 5 } yield (a.toLong, b.toLong)
    val rnd = new scala.util.Random(9)
    for (_ <- 1 to 200) {
      val drop = rnd.nextInt(10)
      val es = rnd.shuffle(pairs.toList).drop(drop + 1).map { case (a, b) => (a, b, 1.0) }
      if (es.nonEmpty) assert(!DetNucleus.isKNucleus(ProbGraph(es), 2))
    }
    assert(DetNucleus.isKNucleus(complete(5), 2))
  }

  test("mask path agrees with rebuilding each world: g predicate and level-k survivors") {
    val rnd = new Random(2022)
    val rng = new WorldRng(2022)
    var nuclei = 0; var survivors = 0
    for (_ <- 1 to 20) {
      val nv = 6 + rnd.nextInt(3)
      val es = for { a <- 0 until nv; b <- a + 1 until nv if rnd.nextDouble() < 0.85 }
        yield (a.toLong, b.toLong, 0.5 + 0.5 * rnd.nextDouble())
      val ws = new DetNucleus.WorldStructure(ProbGraph(es))
      for (_ <- 1 to 10) {
        val mask     = Sampler.sampleMask(ws.probs, rng, new Array[Boolean](ws.graph.edges.length))
        val world    = Sampler.worldGraph(ws.graph, ws.graph.edges, mask)
        val (cs, nu) = DetNucleus.decompose(world)
        for (k <- 0 to 3) {
          val isNucleus = DetNucleus.isKNucleus(ws, mask, k)
          assert(isNucleus == DetNucleus.isKNucleus(world, k), s"k=$k world ${mask.mkString(",")}")
          val level = DetNucleus.levelSet(ws, mask, k)
          val byMask = (0 until ws.cs.nTriangles).filter(level).map { t =>
            val l = ws.graph.labels
            (l(ws.cs.tris.u(t)), l(ws.cs.tris.v(t)), l(ws.cs.tris.w(t)))
          }.toSet
          val byRebuild = (0 until cs.nTriangles).filter(nu(_) >= k).map { t =>
            (world.labels(cs.tris.u(t)), world.labels(cs.tris.v(t)), world.labels(cs.tris.w(t)))
          }.toSet
          assert(byMask == byRebuild, s"k=$k world ${mask.mkString(",")}")
          if (isNucleus) nuclei += 1
          if (k > 0) survivors += byMask.size
        }
      }
    }
    // the 200 worlds exercise both outcomes of the predicate and the pruning
    assert(nuclei > 0 && nuclei < 800 && survivors > 0, s"$nuclei nuclei, $survivors survivors")
  }
}
