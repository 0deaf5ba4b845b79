package repro.cliques

import org.scalatest.funsuite.AnyFunSuite
import repro.{GraphSql, Oracle}
import repro.Oracle.Rows
import repro.graph.{GraphGen, ProbGraph}

/** Triangle enumeration: known cases, and the in-memory enumeration checked
  * against the DuckDB oracle (SQL over the canonical edge table).
  */
class TrianglesSpec extends AnyFunSuite {

  private lazy val k4 = ProbGraph(Seq(
    (1L, 2L, 0.9), (1L, 3L, 0.8), (1L, 4L, 0.7),
    (2L, 3L, 0.6), (2L, 4L, 0.5), (3L, 4L, 0.4)))

  test("K4 has 4 triangles in-memory") {
    val t = Triangles.enumerate(k4)
    assert(t.size == 4)
    // triangle (1,2,3) has probability .9*.8*.6
    val idx = (0 until t.size).find(i => (t.u(i), t.v(i), t.w(i)) == (0, 1, 2)).get
    assert(math.abs(t.prob(idx) - 0.9 * 0.8 * 0.6) < 1e-12)
  }

  test("triangle-free graph (star) has none") {
    val star = ProbGraph(Seq((0L, 1L, 0.5), (0L, 2L, 0.5), (0L, 3L, 0.5)))
    assert(Triangles.count(star) == 0)
  }

  test("cycle C5 has no triangles; adding a chord creates one") {
    val c5 = ProbGraph(Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 3L, 1.0), (3L, 4L, 1.0), (4L, 0L, 1.0)))
    assert(Triangles.count(c5) == 0)
    val chord = ProbGraph(c5.edges.map { case (u, v, p) => (u.toLong, v.toLong, p) } :+ (0L, 2L, 1.0))
    assert(Triangles.count(chord) == 1)
  }

  test("Index.at finds each triangle by its lowest edge, nothing else") {
    for (seed <- 1 to 10) {
      val g     = GraphGen.graph(GraphGen.Spec(30, 90, Seq(6, 5), GraphGen.UniformDist(), seed = seed))
      val tris  = Triangles.enumerate(g)
      val index = new Triangles.Index(g, tris)
      val id    = (0 until tris.size).map(t => (tris.u(t), tris.v(t), tris.w(t)) -> t).toMap
      for { u <- 0 until g.n; v <- g.neighbors(u) if u < v; x <- v + 1 until g.n } {
        val got = index.at(g.slot(u, v), x)
        if (g.hasEdge(u, x) && g.hasEdge(v, x)) assert(got == id((u, v, x)), s"seed $seed ($u,$v,$x)")
        else assert(got < 0, s"seed $seed ($u,$v,$x) is no triangle")
      }
    }
  }

  test("Index rejects triangles out of lexicographic order") {
    val g    = GraphGen.graph(GraphGen.Spec(30, 90, Seq(6, 5), GraphGen.UniformDist(), seed = 4))
    val tris = Triangles.enumerate(g)
    assert(tris.size > 1)
    val reversed = Triangles.TriangleList(tris.u.reverse, tris.v.reverse, tris.w.reverse, tris.prob.reverse,
                                          tris.slots.grouped(3).toArray.reverse.flatten)
    intercept[IllegalArgumentException](new Triangles.Index(g, reversed))
  }

  /** The enumerated triangles by label, with their edge probabilities. */
  private def triangleRows(g: ProbGraph): Rows = {
    val t = Triangles.enumerate(g)
    Rows(Seq("a", "b", "c", "pab", "pac", "pbc"), (0 until t.size).map { i =>
      val (a, b, c) = GraphSql.triangleLabels(g, t, i)
      Seq[Any](a, b, c, g.prob(t.u(i), t.v(i)), g.prob(t.u(i), t.w(i)), g.prob(t.v(i), t.w(i)))
    })
  }

  test("enumeration matches the DuckDB oracle on krogan stand-in") {
    val g = GraphGen.dataset("krogan", scale = 0.15)
    Oracle.assertEquivalent(triangleRows(g), GraphSql.triangles, "e" -> GraphSql.edges(g))
  }

  test("enumeration matches the DuckDB oracle on a dense random graph") {
    val g = GraphGen.graph(GraphGen.Spec(40, 250, Seq(8, 6), GraphGen.UniformDist(), seed = 21))
    Oracle.assertEquivalent(triangleRows(g), GraphSql.triangles, "e" -> GraphSql.edges(g))
  }

  test("SQL triangle count equals in-memory count across datasets") {
    for (name <- Seq("krogan", "dblp", "flickr")) {
      val g = GraphGen.dataset(name, scale = 0.05)
      Oracle.assertEquivalent(Rows(Seq("cnt"), Seq(Seq(Triangles.count(g)))),
        s"SELECT COUNT(*) AS cnt FROM (${GraphSql.triangles})", "e" -> GraphSql.edges(g))
    }
  }

  test("SQL triangle probabilities are keyed to the right pair") {
    val g    = GraphGen.dataset("krogan", scale = 0.1)
    val tris = Triangles.enumerate(g)
    val prob = (0 until tris.size).map(t => GraphSql.triangleLabels(g, tris, t) -> tris.prob(t)).toMap
    val lookup = g.edges.map { case (u, v, p) => ((g.labels(u), g.labels(v)), p) }.toMap
    val sql  = Oracle.query(GraphSql.triangles, "e" -> GraphSql.edges(g)).rows
    assert(sql.size == tris.size)
    sql.foreach { r =>
      val Seq(a: Long, b: Long, c: Long, pab: Double, pac: Double, pbc: Double) = r
      assert(a < b && b < c)
      assert(math.abs(pab - lookup((a, b))) < 1e-12)
      assert(math.abs(pac - lookup((a, c))) < 1e-12)
      assert(math.abs(pbc - lookup((b, c))) < 1e-12)
      assert(math.abs(prob((a, b, c)) - pab * pac * pbc) < 1e-12, s"Pr of ($a,$b,$c)")
    }
  }
}
