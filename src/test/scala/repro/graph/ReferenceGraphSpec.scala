package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{LocalNucleus, ReferenceWorlds}
import repro.prob.Sampler
import scala.util.{Random, Try}

/** The primitive graph build against the boxed `ReferenceGraph`: labels,
  * `offsets`, `adj` and the raw bits of `adjProb` array for array, through
  * `GraphGen.dataset`, `ProbGraph.apply` and `subgraph`; `generate` entry
  * for entry; and the same first exception on an invalid probability.
  */
class ReferenceGraphSpec extends AnyFunSuite {

  private val standIns = GraphGen.paperDatasets ++ Seq("pokec_Normal", "pokec_Pareto", "enwiki")

  private def bits(xs: Array[Double]): Array[Long] = xs.map(java.lang.Double.doubleToRawLongBits)

  private def assertSameGraph(what: String, got: ProbGraph, want: ReferenceGraph.Csr): Unit = {
    assert(got.n == want.labels.length, s"$what: n")
    assert(got.labels.sameElements(want.labels), s"$what: labels")
    assert(got.offsets.sameElements(want.offsets), s"$what: offsets")
    assert(got.adj.sameElements(want.adj), s"$what: adj")
    assert(bits(got.adjProb).sameElements(bits(want.adjProb)), s"$what: adjProb")
  }

  test("dataset and generate equal the reference on the 9 stand-ins at scales 0.5, 1 and 1.5") {
    for (ds <- standIns; scale <- Seq(0.5, 1.0, 1.5)) {
      val spec = GraphGen.spec(ds, scale)
      val want = ReferenceGraph.generate(spec)
      val got  = GraphGen.generate(spec)
      assert(got.length == want.length, s"$ds ×$scale: generated edges")
      got.indices.foreach { i =>
        val (a, b, p) = got(i); val (x, y, q) = want(i)
        assert(a == x && b == y && java.lang.Double.doubleToRawLongBits(p) == java.lang.Double.doubleToRawLongBits(q),
          s"$ds ×$scale: generated edge $i")
      }
      assertSameGraph(s"$ds ×$scale", GraphGen.dataset(ds, scale), ReferenceGraph(want))
    }
  }

  /** Up to 160 entries over 1–40 labels, `Long.MinValue`, `Long.MaxValue`,
    * −1 and 0 among them; some repeat an earlier edge, as given or reversed,
    * with another probability; some labels have only self-loops.
    */
  private def randomEdgeList(rnd: Random): IndexedSeq[(Long, Long, Double)] = {
    val special = Seq(Long.MinValue, Long.MaxValue, -1L, 0L)
    val labels  = (rnd.shuffle(special).take(1 + rnd.nextInt(4)) ++
      Seq.fill(1 + rnd.nextInt(36))(if (rnd.nextBoolean()) rnd.nextLong() else rnd.nextInt(60).toLong - 30)).distinct.toVector
    val lone = labels.filter(_ => rnd.nextInt(8) == 0).toSet
    val ends = labels.filterNot(lone)
    def prob() = rnd.nextInt(6) match {
      case 0 => 1.0
      case 1 => Double.MinPositiveValue
      case _ => 1.0 - rnd.nextDouble() // in (0, 1]
    }
    val out = IndexedSeq.newBuilder[(Long, Long, Double)]
    val seen = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
    for (_ <- 0 until rnd.nextInt(161)) {
      rnd.nextInt(10) match {
        case 0 | 1 if seen.nonEmpty => // a repeat, as given or reversed
          val (a, b) = seen(rnd.nextInt(seen.length))
          out += (if (rnd.nextBoolean()) (a, b, prob()) else (b, a, prob()))
        case 2 => // a self-loop
          val a = labels(rnd.nextInt(labels.length))
          out += ((a, a, prob()))
        case _ if ends.length >= 2 =>
          val a = ends(rnd.nextInt(ends.length)); val b = ends(rnd.nextInt(ends.length))
          if (a != b) seen += ((a, b))
          out += ((a, b, prob()))
        case _ =>
      }
    }
    out.result()
  }

  test("apply equals the reference on 240 random edge lists and the empty list") {
    val rnd = new Random(1212)
    var (repeats, reversed, loneLabels) = (0, 0, 0)
    assertSameGraph("empty", ProbGraph(Nil), ReferenceGraph(Nil))
    for (trial <- 1 to 240) {
      val es   = randomEdgeList(rnd)
      val want = ReferenceGraph(es)
      assertSameGraph(s"trial $trial", ProbGraph(es), want)
      val first = scala.collection.mutable.HashMap.empty[(Long, Long), Double]
      es.foreach { case (a, b, p) =>
        if (a != b) first.get((a min b, a max b)) match {
          case Some(q) => if (q != p) repeats += 1
          case None    => first((a min b, a max b)) = p
        }
      }
      reversed += es.count { case (a, b, _) => a > b && first.contains((b, a)) }
      loneLabels += es.count { case (a, b, _) => a == b && java.util.Arrays.binarySearch(want.labels, a) < 0 }
    }
    assert(repeats > 0 && reversed > 0 && loneLabels > 0, s"($repeats, $reversed, $loneLabels)")
  }

  test("subgraph equals the reference on every ℓ-nucleus, g and w candidate and some worlds of krogan (θ = 0.1)") {
    val g     = GraphGen.dataset("krogan")
    val local = LocalNucleus.decompose(g, 0.1, LocalNucleus.DP)
    var inputs = 0
    def check(what: String, es: Seq[(Int, Int, Double)]): Unit = {
      assertSameGraph(what, g.subgraph(es), ReferenceGraph.subgraph(g, es))
      inputs += 1
    }
    for (k <- 1 to local.kMax) {
      local.nucleiAt(k).zipWithIndex.foreach { case (n, i) =>
        check(s"k=$k ℓ-nucleus / w candidate $i", n.edges.toSeq)
        // Table 4's graph of the nucleus, spanned from its triangles
        assertSameGraph(s"k=$k ℓ-nucleus $i spanned", local.subgraph(n.triangleIds), ReferenceGraph.subgraph(g, n.edges.toSeq))
      }
      ReferenceWorlds.gCandidateEdges(local, k).foreach { case (t, es) => check(s"k=$k g candidate $t", es.toSeq) }
    }
    val edges = g.edges
    val rnd   = new Random(5)
    for (w <- 1 to 5) {
      val mask = Array.fill(edges.length)(rnd.nextBoolean())
      assertSameGraph(s"world $w", Sampler.worldGraph(g, edges, mask),
        ReferenceGraph.subgraph(g, edges.indices.collect { case i if mask(i) => (edges(i)._1, edges(i)._2, 1.0) }))
    }
    assert(inputs > 2 * local.kMax, s"only $inputs subgraph inputs")
  }

  test("an invalid probability fails with the reference's first exception, also on a self-loop and after a repeat") {
    val rnd = new Random(1313)
    val invalid = Seq(0.0, -0.0, -0.5, 1.0000000000000002, 1.5, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    def message(build: => Any): String = Try(build).failed.get match {
      case e: IllegalArgumentException => e.getMessage
      case e                           => fail(s"not an IllegalArgumentException: $e")
    }
    var (onSelfLoop, afterRepeat) = (0, 0)
    for (trial <- 1 to 120) {
      val es = randomEdgeList(rnd) :+ ((7L, 8L, 0.5))
      val at = rnd.nextInt(es.length)
      val (a, b, _) = es(at)
      val bad = es.updated(at, (a, b, invalid(rnd.nextInt(invalid.length))))
      // sometimes a second invalid entry later on: the first must be reported
      val twice = if (rnd.nextBoolean()) bad :+ ((1L, 2L, invalid(rnd.nextInt(invalid.length)))) else bad
      assert(message(ProbGraph(twice)) == message(ReferenceGraph(twice)), s"trial $trial")
      if (a == b) onSelfLoop += 1
      if (es.take(at).exists { case (x, y, _) => (x == a && y == b) || (x == b && y == a) }) afterRepeat += 1
    }
    for (p <- invalid) {
      val loop = Seq((1L, 2L, 0.5), (3L, 3L, p), (2L, 3L, 0.5))
      val rep  = Seq((1L, 2L, 0.5), (2L, 1L, 0.7), (2L, 1L, p))
      for (es <- Seq(loop, rep)) assert(message(ProbGraph(es)) == message(ReferenceGraph(es)), s"$es")
    }
    assert(onSelfLoop > 0 && afterRepeat > 0, s"($onSelfLoop, $afterRepeat)")
  }
}
