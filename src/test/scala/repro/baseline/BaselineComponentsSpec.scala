package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.cliques.Triangles
import repro.graph.{GraphGen, ProbGraph}
import scala.util.Random

/** The truss and core baselines over CSR slots: `kernelInput` against the
  * edge-tuple formula, `trussesAt`/`coresAt` against a grouping of `g.edges`
  * sorted by least label, and the seed-0 digests the benchmark records.
  */
class BaselineComponentsSpec extends AnyFunSuite {

  private val standIns = GraphGen.paperDatasets ++ Seq("pokec_Normal", "pokec_Pareto", "enwiki")

  private def bits(xs: Array[Double]): Array[Long] = xs.map(java.lang.Double.doubleToRawLongBits)

  /** The components of the edges `kept` (a filter of `g.edges`), found by
    * min-id propagation, sorted by least vertex, each in `g.edges` order.
    */
  private def reference(g: ProbGraph, kept: Array[(Int, Int, Double)]): Seq[ProbGraph] = {
    val least = Array.range(0, g.n)
    var changed = true
    while (changed) {
      changed = false
      kept.foreach { case (u, v, _) =>
        val m = math.min(least(u), least(v))
        if (least(u) != m || least(v) != m) { least(u) = m; least(v) = m; changed = true }
      }
    }
    kept.groupBy(e => least(e._1)).toSeq.sortBy(_._1).map { case (_, es) => g.subgraph(es) }
  }

  private def assertSame(what: String, got: Seq[ProbGraph], want: Seq[ProbGraph]): Unit = {
    assert(got.size == want.size, s"$what: component count")
    got.zip(want).zipWithIndex.foreach { case ((a, b), i) =>
      assert(a.labels.sameElements(b.labels) && a.offsets.sameElements(b.offsets) && a.adj.sameElements(b.adj) &&
             bits(a.adjProb).sameElements(bits(b.adjProb)), s"$what: component $i")
    }
    val least = got.map(_.labels.head)
    assert(least.zip(least.drop(1)).forall { case (a, b) => a < b }, s"$what: least labels $least")
  }

  /** Checks k = 1, k_max / 2 and k_max of both baselines; returns how many levels had more than one component. */
  private def checkComponents(what: String, g: ProbGraph, theta: Double): Int = {
    val edges = g.edges
    val truss = ProbTruss.decompose(g, theta)
    val core  = ProbCore.decompose(g, theta)
    val trusses = Seq(1, truss.kMax / 2, truss.kMax).distinct.map { k =>
      val kept = edges.indices.collect { case e if truss.trussNumber(e) >= k => edges(e) }.toArray
      val got  = truss.trussesAt(k)
      assertSame(s"$what truss k=$k", got, reference(g, kept))
      got.size
    }
    val cores = Seq(1, core.kMax / 2, core.kMax).distinct.map { k =>
      val kept = edges.filter { case (u, v, _) => core.coreNumber(u) >= k && core.coreNumber(v) >= k }
      val got  = core.coresAt(k)
      assertSame(s"$what core k=$k", got, reference(g, kept))
      got.size
    }
    (trusses ++ cores).count(_ > 1)
  }

  test("truss kernelInput equals the edge-tuple formula on the 9 stand-ins") {
    for (ds <- standIns) {
      val g     = GraphGen.dataset(ds)
      val edges = g.edges
      val tris  = Triangles.enumerate(g)
      val ids   = g.edgeIds
      val members = (0 until tris.size).flatMap { t =>
        Seq(ids(g.slot(tris.u(t), tris.v(t))), ids(g.slot(tris.u(t), tris.w(t))), ids(g.slot(tris.v(t), tris.w(t))))
      }.toArray
      val wings = members.grouped(3).flatMap { case Array(uv, uw, vw) =>
        val (puv, puw, pvw) = (edges(uv)._3, edges(uw)._3, edges(vw)._3)
        Seq(puw * pvw, puv * pvw, puv * puw)
      }.toArray
      val in = ProbTruss.kernelInput(g)
      assert(bits(in.itemProb).sameElements(bits(edges.map(_._3))), s"$ds: itemProb")
      assert(in.groupItems.flatten.sameElements(members), s"$ds: members")
      assert(bits(in.groupPrE.flatten).sameElements(bits(wings)), s"$ds: wings")
    }
  }

  test("trussesAt and coresAt equal a g.edges grouping by least label on the 9 stand-ins at 3 θ") {
    val several = for (ds <- standIns; theta <- Seq(0.1, 0.2, 0.3)) yield checkComponents(s"$ds θ=$theta", GraphGen.dataset(ds), theta)
    assert(several.sum > 0, "no level had more than one component")
  }

  test("trussesAt and coresAt equal a g.edges grouping by least label on 25 random graphs") {
    val rnd = new Random(1313)
    var several = 0 // levels with more than one component
    for (trial <- 1 to 25) {
      val n = 20 + rnd.nextInt(40)
      // a few dense blocks over a sparse background, labels scattered
      val blocks = Seq.fill(1 + rnd.nextInt(4)) { val from = rnd.nextInt(n - 6); (from until from + 4 + rnd.nextInt(4)).toSet }
      val label  = rnd.shuffle((0 until n).map(_ * 7L - 50L))
      val es = for {
        a <- 0 until n; b <- a + 1 until n
        if rnd.nextDouble() < (if (blocks.exists(bl => bl(a) && bl(b))) 0.9 else 0.08)
      } yield (label(a), label(b), 0.3 + 0.7 * rnd.nextDouble())
      val g = ProbGraph(es)
      val theta = 0.05 + 0.4 * rnd.nextDouble()
      several += checkComponents(s"trial $trial", g, theta)
    }
    assert(several > 0, "no level had more than one component")
  }

  test("the six paper stand-ins have the truss and core digests the benchmark records at θ = 0.2") {
    // nucbench's Checks: SHA-256, first 8 bytes in hex; a string part is its UTF-8 bytes, then its length as a long
    final class Digest {
      private val md  = java.security.MessageDigest.getInstance("SHA-256")
      private val buf = java.nio.ByteBuffer.allocate(8)
      def long(x: Long): this.type = { buf.clear(); buf.putLong(x); md.update(buf.array()); this }
      def string(s: String): this.type = { md.update(s.getBytes("UTF-8")); long(s.length.toLong) }
      def hex: String = md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
    }
    def graph(g: ProbGraph): String = {
      val d = new Digest
      g.edges.map { case (u, v, p) =>
        val (a, b) = (g.labels(u), g.labels(v))
        (math.min(a, b), math.max(a, b), p)
      }.sortBy(e => (e._1, e._2)).foreach { case (a, b, p) => d.long(a).long(b).long(java.lang.Double.doubleToLongBits(p)) }
      d.hex
    }
    def subgraphs(gs: Seq[ProbGraph]): String = { val d = new Digest; gs.map(graph).sorted.foreach(d.string); d.hex }
    def edgeNumbers(g: ProbGraph, edges: Array[(Int, Int, Double)], num: Array[Int]): String = {
      val d = new Digest
      edges.indices.map(i => (g.labels(edges(i)._1), g.labels(edges(i)._2), num(i)))
        .sortBy(e => (e._1, e._2)).foreach { case (a, b, k) => d.long(a).long(b).long(k.toLong) }
      d.hex
    }
    def vertexNumbers(g: ProbGraph, num: Array[Int]): String = {
      val d = new Digest
      num.indices.map(v => (g.labels(v), num(v))).sortBy(_._1).foreach { case (a, k) => d.long(a).long(k.toLong) }
      d.hex
    }
    val src = scala.io.Source.fromFile("nucbench/expected-seed0.txt", "UTF-8")
    val expected = try src.getLines().collect { case s"paper-mix $op:$ds $hex" if op == "truss" || op == "core" => (op, ds) -> hex }.toMap
                   finally src.close()
    assert(expected.keySet == GraphGen.paperDatasets.flatMap(ds => Seq(("truss", ds), ("core", ds))).toSet)
    for (ds <- GraphGen.paperDatasets) {
      val g     = GraphGen.dataset(ds)
      val truss = ProbTruss.decompose(g, 0.2)
      val core  = ProbCore.decompose(g, 0.2)
      assert(edgeNumbers(g, truss.edgeList, truss.trussNumber) + subgraphs(truss.trussesAt(truss.kMax)) == expected(("truss", ds)),
             s"truss:$ds")
      assert(vertexNumbers(g, core.coreNumber) + subgraphs(core.coresAt(core.kMax)) == expected(("core", ds)), s"core:$ds")
    }
  }
}
