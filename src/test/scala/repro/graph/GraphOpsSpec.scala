package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{GraphSql, Oracle}

/** Table 1 statistics: known cases, and the in-memory statistics checked
  * against SQL over the edge table.
  */
class GraphOpsSpec extends AnyFunSuite {

  test("stats of a known graph") {
    val g = ProbGraph(Seq((0L, 1L, 0.5), (1L, 2L, 0.7), (0L, 2L, 0.9), (2L, 3L, 0.1)))
    val s = GraphOps.stats(g)
    assert(s.nVertices == 4 && s.nEdges == 4)
    assert(s.dMax == 3) // vertex 2
    assert(math.abs(s.pAvg - 0.55) < 1e-12)
    assert(s.nTriangles == 1)
  }

  /** |V|, |E|, d_max, p_avg and |Δ| of the edge table. */
  private val statsSql =
    s"""WITH ends AS (SELECT CAST(u AS BIGINT) AS x FROM e UNION ALL SELECT CAST(v AS BIGINT) FROM e)
       |SELECT (SELECT COUNT(DISTINCT x) FROM ends) AS nv,
       |       (SELECT COUNT(*) FROM e) AS ne,
       |       (SELECT MAX(d) FROM (SELECT COUNT(*) AS d FROM ends GROUP BY x)) AS dmax,
       |       (SELECT AVG(CAST(p AS DOUBLE)) FROM e) AS pavg,
       |       (SELECT COUNT(*) FROM (${GraphSql.triangles})) AS ntri""".stripMargin

  test("in-memory and SQL stats agree on stand-ins") {
    for (name <- Seq("krogan", "dblp")) {
      val g   = GraphGen.dataset(name, scale = 0.08)
      val mem = GraphOps.stats(g)
      val Seq(Seq(nv: Long, ne: Long, dMax: Long, pAvg: Double, nTri: Long)) =
        Oracle.query(statsSql, "e" -> GraphSql.edges(g)).rows
      assert(mem.nVertices == nv && mem.nEdges == ne && mem.dMax == dMax && mem.nTriangles == nTri, name)
      assert(math.abs(mem.pAvg - pAvg) < 1e-9, name) // summation order differs
    }
  }

  test("isolated-free invariant: every counted vertex has degree ≥ 1") {
    val g = GraphGen.dataset("flickr", scale = 0.05)
    (0 until g.n).foreach(v => assert(g.degree(v) >= 1))
  }
}
