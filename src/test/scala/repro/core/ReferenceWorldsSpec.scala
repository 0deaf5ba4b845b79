package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cliques.FourCliques
import repro.graph.{GraphGen, ProbGraph}
import repro.prob.Lanes
import scala.util.Random

/** The batched world path against `ReferenceWorlds`: g's and w's
  * per-triangle success counts equal on every candidate's restricted
  * structure, across batch boundaries, and the batch checks equal on every
  * world of a batch of random masks.
  */
class ReferenceWorldsSpec extends AnyFunSuite {

  /** Compares g's and w's counts on every candidate at every level, each
    * structure restricted from the ℓ structure and seeded as `decompose`
    * builds and seeds it; returns how many counts lie strictly between 0
    * and n.
    */
  private def assertCounts(what: String, local: LocalNucleus.Decomposition, n: Int,
                           gSeed: Long, wSeed: Long): Int = {
    val restrict = new DetNucleus.Restrict(local.graph, local.structure)
    var partial = 0
    for (k <- 1 to local.kMax; c <- ReferenceWorlds.candidates(local, k, restrict)) {
      val ws    = restrict(c.slots)
      val probs = c.slots.map(local.graph.adjProb)
      val (got, want) =
        if (c.kind == "g") {
          val seed = gSeed + k + c.offset
          (GlobalNucleus.globalCounts(ws, k, n, seed), ReferenceWorlds.globalCounts(ws, probs, k, n, seed))
        } else {
          val seed = wSeed + 7919L * k + c.offset
          (WeaklyGlobalNucleus.weaklyCounts(ws, k, n, seed), ReferenceWorlds.weaklyCounts(ws, probs, k, n, seed))
        }
      assert(got.sameElements(want), s"$what ${c.kind} k=$k candidate ${c.offset}")
      partial += got.count(x => x > 0 && x < n)
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
      val ws      = DetNucleus.worldStructure(local.graph, local.structure)
      val probs   = local.graph.edgeProbs
      val seed    = rnd.nextLong()
      val support = ws.triCliques.map(_.length)
      for (k <- 0 to support.foldLeft(0)(_ max _) + 1) {
        assert(GlobalNucleus.globalCounts(ws, k, 100, seed).sameElements(ReferenceWorlds.globalCounts(ws, probs, k, 100, seed)),
          s"trial $trial whole graph g k=$k")
        assert(WeaklyGlobalNucleus.weaklyCounts(ws, k, 100, seed).sameElements(ReferenceWorlds.weaklyCounts(ws, probs, k, 100, seed)),
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

  test("nuclei, credit and prune equal the reference on every lane") {
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
      val g   = ProbGraph(es)
      val ws  = DetNucleus.worldStructure(g, FourCliques.build(g))
      val lab = g.labels
      val wes = g.edges
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
      // all masks are one batch: mask w is world w
      val words = Lanes.pack(masks, m)
      val valid = -1L >>> (64 - masks.length)
      def load(): Unit = { System.arraycopy(words, 0, ws.edgeW, 0, m); ws.setAlive() }
      for (k <- 0 to 4) {
        load()
        val got    = ws.nuclei(valid, k)
        val credit = ws.triW.map(_ & got) // what `globalCounts` credits
        load(); ws.prune(k)
        assert(got >>> masks.length == 0L, s"trial $trial k=$k: a world outside the batch is a nucleus")
        for ((mask, w) <- masks.zipWithIndex) {
          val want = ReferenceWorlds.isKNucleus(ws, mask, k)
          assert(((got >>> w & 1L) == 1L) == want, s"trial $trial k=$k world $w mask ${mask.mkString(",")}")
          if (want) nuclei += 1
          assert(Lanes.mask(credit, w).sameElements(ReferenceWorlds.aliveTriangles(ws, mask).map(_ && want)),
            s"trial $trial k=$k world $w: g's credit")
          assert(Lanes.mask(ws.triW, w).sameElements(ReferenceWorlds.levelSet(ws, mask, k)),
            s"trial $trial k=$k world $w: level set")
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
    }
    assert(cliqueFree > 0 && nuclei > 0 && connectivityOnly > 0,
      s"$cliqueFree clique-free worlds, $nuclei nuclei, $connectivityOnly connectivity-only failures")
  }
}
