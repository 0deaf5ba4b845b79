package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{GraphSql, Oracle}
import repro.Oracle.Rows
import repro.cliques.Triangles
import repro.graph.{GraphGen, ProbGraph}

/** PD (Eq. 19) and PCC (Eq. 20): hand-computed cases, and the in-memory
  * metrics and their ingredients checked against SQL over the edge table.
  */
class MetricsSpec extends AnyFunSuite {

  private val triangleGraph = ProbGraph(Seq((0L, 1L, 0.5), (1L, 2L, 0.6), (0L, 2L, 0.7)))

  test("PD of a triangle graph") {
    // (0.5+0.6+0.7) / 3 possible edges
    assert(math.abs(Metrics.pd(triangleGraph) - 1.8 / 3.0) < 1e-12)
  }

  test("PCC of a triangle graph") {
    val num = 3 * (0.5 * 0.6 * 0.7)
    val den = 0.5 * 0.7 + 0.5 * 0.6 + 0.6 * 0.7 // one wedge pair per centre
    assert(math.abs(Metrics.pcc(triangleGraph) - num / den) < 1e-12)
  }

  test("PCC of a wedge (no triangle) is 0; PD counts all pairs") {
    val wedge = ProbGraph(Seq((0L, 1L, 0.8), (1L, 2L, 0.9)))
    assert(Metrics.pcc(wedge) == 0.0)
    assert(math.abs(Metrics.pd(wedge) - 1.7 / 3.0) < 1e-12)
  }

  test("PD of a complete graph with p = 1 is 1; PCC is 1") {
    val k5 = ProbGraph(for { a <- 0 until 5; b <- a + 1 until 5 } yield (a.toLong, b.toLong, 1.0))
    assert(math.abs(Metrics.pd(k5) - 1.0) < 1e-12)
    assert(math.abs(Metrics.pcc(k5) - 1.0) < 1e-12)
  }

  /** PD and PCC over the edge table, written out from Eqs. 19 and 20. */
  private val pdPccSql =
    s"""WITH ends AS (
       |  SELECT CAST(u AS BIGINT) AS x, CAST(p AS DOUBLE) AS p FROM e
       |  UNION ALL SELECT CAST(v AS BIGINT), CAST(p AS DOUBLE) FROM e),
       |nv AS (SELECT CAST(COUNT(DISTINCT x) AS DOUBLE) AS n FROM ends),
       |psum AS (SELECT COALESCE(SUM(CAST(p AS DOUBLE)), 0.0) AS s FROM e),
       |tri AS (SELECT COALESCE(SUM(pab * pac * pbc), 0.0) AS num FROM (${GraphSql.triangles})),
       |wedge AS (SELECT COALESCE(SUM(w), 0.0) AS den FROM
       |  (SELECT (SUM(p) * SUM(p) - SUM(p * p)) / 2.0 AS w FROM ends GROUP BY x))
       |SELECT CASE WHEN n < 2 THEN 0.0 ELSE s / (n * (n - 1) / 2.0) END AS pd,
       |       CASE WHEN den = 0 THEN 0.0 ELSE 3.0 * num / den END AS pcc
       |FROM nv, psum, tri, wedge""".stripMargin

  test("in-memory and SQL metrics agree on dataset stand-ins") {
    for (name <- Seq("krogan", "flickr")) {
      val g = GraphGen.dataset(name, scale = 0.1)
      val Seq(Seq(pd: Double, pcc: Double)) = Oracle.query(pdPccSql, "e" -> GraphSql.edges(g)).rows
      assert(math.abs(Metrics.pd(g) - pd) < 1e-9, s"$name PD")
      assert(math.abs(Metrics.pcc(g) - pcc) < 1e-9, s"$name PCC")
    }
  }

  test("PD ingredients match DuckDB oracle") {
    val g = GraphGen.dataset("krogan", scale = 0.1)
    val mine = Rows(Seq("psum", "edges"), Seq(Seq(g.edges.map(_._3).sum, g.m.toDouble)))
    Oracle.assertEquivalent(mine,
      "SELECT SUM(CAST(p AS DOUBLE)) AS psum, CAST(COUNT(*) AS DOUBLE) AS edges FROM e",
      "e" -> GraphSql.edges(g))
  }

  test("PCC numerator (triangle probability mass) matches DuckDB oracle") {
    val g    = GraphGen.dataset("krogan", scale = 0.12)
    val tris = Triangles.enumerate(g)
    val mine = Rows(Seq("trimass"), Seq(Seq(tris.prob.sum)))
    val sql =
      """SELECT COALESCE(SUM(CAST(e1.p AS DOUBLE) * CAST(e2.p AS DOUBLE) * CAST(e3.p AS DOUBLE)), 0.0) AS trimass
        |FROM e e1
        |JOIN e e2 ON CAST(e2.u AS BIGINT) = CAST(e1.v AS BIGINT)
        |JOIN e e3 ON CAST(e3.u AS BIGINT) = CAST(e1.u AS BIGINT)
        |         AND CAST(e3.v AS BIGINT) = CAST(e2.v AS BIGINT)""".stripMargin
    Oracle.assertEquivalent(mine, sql, "e" -> GraphSql.edges(g))
  }

  test("nucleus subgraphs are denser than their host graph") {
    val g   = GraphGen.dataset("krogan", scale = 0.3)
    val dec = LocalNucleus.decompose(g, 0.1, LocalNucleus.DP)
    if (dec.kMax >= 1) {
      val hostPd = Metrics.pd(g)
      dec.nucleiAt(dec.kMax).foreach { nuc =>
        val sub = ProbGraph(nuc.edges.toIndexedSeq.map { case (u, v, p) =>
          (g.labels(u), g.labels(v), p) })
        assert(Metrics.pd(sub) > hostPd, "max-k nucleus should beat host PD")
      }
    }
  }

  test("PD sums the edges in g.edges order: its raw bits equal the boxed formula on the 9 stand-ins and the krogan nuclei") {
    def boxed(g: ProbGraph): Double =
      if (g.n < 2) 0.0 else g.edges.map(_._3).sum / (g.n.toDouble * (g.n - 1) / 2.0)
    def assertSameBits(what: String, g: ProbGraph): Unit =
      assert(java.lang.Double.doubleToRawLongBits(Metrics.pd(g)) == java.lang.Double.doubleToRawLongBits(boxed(g)), what)
    for (ds <- GraphGen.paperDatasets ++ Seq("pokec_Normal", "pokec_Pareto", "enwiki"))
      assertSameBits(ds, GraphGen.dataset(ds))
    val dec    = LocalNucleus.decompose(GraphGen.dataset("krogan"), 0.1, LocalNucleus.DP)
    val nuclei = dec.allNuclei
    assert(nuclei.nonEmpty)
    nuclei.zipWithIndex.foreach { case (n, i) => assertSameBits(s"krogan k=${n.k} nucleus $i", dec.graph.subgraph(n.edges)) }
  }
}
