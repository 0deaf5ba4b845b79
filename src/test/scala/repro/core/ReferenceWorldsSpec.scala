package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, ProbGraph}
import scala.util.Random

/** The batched world path against `ReferenceWorlds`: g's and w's
  * per-triangle success counts equal on every candidate, across batch
  * boundaries, and the one-world predicates equal on random masks.
  */
class ReferenceWorldsSpec extends AnyFunSuite {

  /** g's candidates at level k, each with its seed offset and its structure, as `validate` builds it. */
  private def gCandidates(local: LocalNucleus.Decomposition, k: Int): Seq[(Int, DetNucleus.WorldStructure)] =
    ReferenceWorlds.gCandidateEdges(local, k).map { case (t, es) => (t, new DetNucleus.WorldStructure(local.graph.subgraph(es))) }

  /** w's candidates at level k: the ℓ-nuclei, with their index. */
  private def wCandidates(local: LocalNucleus.Decomposition, k: Int): Seq[(Int, DetNucleus.WorldStructure)] =
    local.nucleiAt(k).zipWithIndex.map { case (cand, ci) =>
      (ci, new DetNucleus.WorldStructure(local.graph.subgraph(cand.edges)))
    }

  /** Compares g's and w's counts on every candidate at every level, seeded
    * as `decompose` seeds them; returns how many counts lie strictly
    * between 0 and n.
    */
  private def assertCounts(what: String, local: LocalNucleus.Decomposition, n: Int,
                           gSeed: Long, wSeed: Long): Int = {
    var partial = 0
    def check(kind: String, k: Int, c: Int, got: Array[Int], want: Array[Int]): Unit = {
      assert(got.sameElements(want), s"$what $kind k=$k candidate $c")
      partial += got.count(x => x > 0 && x < n)
    }
    for (k <- 1 to local.kMax) {
      gCandidates(local, k).foreach { case (t, ws) =>
        val seed = gSeed + k + t
        check("g", k, t, GlobalNucleus.globalCounts(ws, k, n, seed), ReferenceWorlds.globalCounts(ws, k, n, seed))
      }
      wCandidates(local, k).foreach { case (ci, ws) =>
        val seed = wSeed + 7919L * k + ci
        check("w", k, ci, WeaklyGlobalNucleus.weaklyCounts(ws, k, n, seed), ReferenceWorlds.weaklyCounts(ws, k, n, seed))
      }
    }
    partial
  }

  test("g and w world counts equal the reference on krogan at n = 150 and 300 with Table 5's seeds") {
    val local = LocalNucleus.decompose(GraphGen.dataset("krogan"), 0.1, LocalNucleus.DP)
    for (n <- Seq(150, 300)) {
      // Tables.table5's seeds: g at 1234 + n, w at 1234 + 31·n
      val partial = assertCounts(s"krogan n=$n", local, n, 1234L + n, 1234L + 31L * n)
      assert(partial > 0, s"krogan n=$n: every count is 0 or n")
    }
  }

  /** A random graph of 8 to 12 vertices with its ℓ decomposition, and a g and a w seed. */
  private def randomLocal(rnd: Random): (LocalNucleus.Decomposition, Long, Long) = {
    val nv = 8 + rnd.nextInt(5)
    val es = for { a <- 0 until nv; b <- a + 1 until nv if rnd.nextDouble() < 0.7 }
      yield (a.toLong, b.toLong, 0.5 + 0.5 * rnd.nextDouble())
    (LocalNucleus.decompose(ProbGraph(es), 0.1 + 0.2 * rnd.nextDouble(), LocalNucleus.DP), rnd.nextLong(), rnd.nextLong())
  }

  test("g and w world counts equal the reference on 20 random graphs") {
    val rnd = new Random(1111)
    var partial = 0; var aboveSupport = 0
    for (trial <- 1 to 20) {
      val (local, gSeed, wSeed) = randomLocal(rnd)
      partial += assertCounts(s"trial $trial", local, 100, gSeed, wSeed)
      // and on the whole graph at k = 0 up to one above every triangle's clique count
      val ws      = new DetNucleus.WorldStructure(local.graph)
      val seed    = rnd.nextLong()
      val support = ws.cs.triCliques.map(_.length)
      for (k <- 0 to support.foldLeft(0)(_ max _) + 1) {
        assert(GlobalNucleus.globalCounts(ws, k, 100, seed).sameElements(ReferenceWorlds.globalCounts(ws, k, 100, seed)),
          s"trial $trial whole graph g k=$k")
        assert(WeaklyGlobalNucleus.weaklyCounts(ws, k, 100, seed).sameElements(ReferenceWorlds.weaklyCounts(ws, k, 100, seed)),
          s"trial $trial whole graph w k=$k")
        if (k > 0 && support.exists(s => s > 0 && s < k)) aboveSupport += 1
      }
    }
    assert(partial > 0, "every count is 0 or n")
    assert(aboveSupport > 0, "no level above a clique-bearing triangle's clique count")
  }

  test("g and w world counts equal the reference at n in 1, 63, 64, 65, 128, 300 on random graphs and krogan") {
    val rnd    = new Random(3333)
    val locals = Seq.fill(20)(randomLocal(rnd))
    val krogan = LocalNucleus.decompose(GraphGen.dataset("krogan"), 0.1, LocalNucleus.DP)
    // one world, a word less one, one word, one word and one world, two words, Table 5's n
    for (n <- Seq(1, 63, 64, 65, 128, 300)) {
      var partial = 0
      for (((local, gSeed, wSeed), trial) <- locals.zipWithIndex)
        partial += assertCounts(s"trial $trial n=$n", local, n, gSeed, wSeed)
      partial += assertCounts(s"krogan n=$n", krogan, n, 1234L + n, 1234L + 31L * n)
      if (n > 1) assert(partial > 0, s"n=$n: every count is 0 or n")
    }
  }

  test("isKNucleus and levelSet equal the reference for k in 0..4 on random masks") {
    val rnd = new Random(2222)
    def clique(vs: Range): Seq[(Long, Long, Double)] =
      for { a <- vs; b <- vs if a < b } yield (a.toLong, b.toLong, 1.0)
    var cliqueFree = 0; var nuclei = 0; var connectivityOnly = 0
    for (trial <- 1 to 30) {
      // odd trials: two K5s (0..4, 10..14) with up to 3 bridges; even: a dense random graph
      val (es, sideA) = if (trial % 2 == 1) {
        val bridges = Seq.fill(rnd.nextInt(4))((rnd.nextInt(5).toLong, 10L + rnd.nextInt(5), 1.0))
        (clique(0 until 5) ++ clique(10 until 15) ++ bridges, Some((v: Long) => v < 10))
      } else {
        val nv = 7 + rnd.nextInt(4)
        ((for { a <- 0 until nv; b <- a + 1 until nv if rnd.nextDouble() < 0.75 } yield (a.toLong, b.toLong, 1.0)), None)
      }
      val ws  = new DetNucleus.WorldStructure(ProbGraph(es))
      val lab = ws.graph.labels
      val wes = ws.graph.edges
      val m   = wes.length
      // on the two K5s, also the world of two disjoint K4s: 0..3 and 10..13
      val twoK4s = sideA.map { inA =>
        Array.tabulate(m) { e =>
          val (a, b) = (lab(wes(e)._1), lab(wes(e)._2))
          inA(a) == inA(b) && a % 10 < 4 && b % 10 < 4
        }
      }
      val masks = Seq(Array.fill(m)(true), Array.fill(m)(false)) ++ twoK4s ++
        Seq.fill(40) { val d = Seq(0.5, 0.7, 0.85, 0.95)(rnd.nextInt(4)); Array.fill(m)(rnd.nextDouble() < d) }
      for (mask <- masks; k <- 0 to 4) {
        val want = ReferenceWorlds.isKNucleus(ws, mask, k)
        assert(DetNucleus.isKNucleus(ws, mask, k) == want, s"trial $trial k=$k mask ${mask.mkString(",")}")
        if (want) {
          nuclei += 1
          assert(ws.triW.map(_ != 0L).sameElements(ReferenceWorlds.aliveTriangles(ws, mask)), s"trial $trial k=$k: g's credit")
        }
        assert(DetNucleus.levelSet(ws, mask, k).sameElements(ReferenceWorlds.levelSet(ws, mask, k)),
          s"trial $trial k=$k level set")
        if (k == 0 && ReferenceWorlds.levelSet(ws, mask, 1).forall(!_)) cliqueFree += 1
        // two disjoint k-nuclei with no bridge between them fail connectivity alone
        sideA.foreach { inA =>
          val side = (a: Boolean) => Array.tabulate(m)(e => mask(e) && inA(lab(wes(e)._1)) == a && inA(lab(wes(e)._2)) == a)
          val bridged = (0 until m).exists(e => mask(e) && inA(lab(wes(e)._1)) != inA(lab(wes(e)._2)))
          if (!bridged && ReferenceWorlds.isKNucleus(ws, side(true), k) && ReferenceWorlds.isKNucleus(ws, side(false), k)) {
            assert(!want, s"trial $trial k=$k: two disjoint nuclei are not s-connected")
            connectivityOnly += 1
          }
        }
      }
    }
    assert(cliqueFree > 0 && nuclei > 0 && connectivityOnly > 0,
      s"$cliqueFree clique-free worlds, $nuclei nuclei, $connectivityOnly connectivity-only failures")
  }
}
