package repro

import repro.Oracle.Rows
import repro.cliques.Triangles.TriangleList
import repro.graph.ProbGraph

/** Relational definitions of the graph structures the kernels enumerate,
  * for the DuckDB oracle. Each query reads the edge table `e` built by
  * [[edges]] and names vertices by their original labels.
  */
object GraphSql {

  /** Edge table `e(u, v, p)`: one row per undirected edge, u < v by label
    * (dense ids follow label order, so the canonical u < v carries over).
    */
  def edges(g: ProbGraph): Rows =
    Rows(Seq("u", "v", "p"), g.edges.toIndexedSeq.map { case (u, v, p) =>
      Seq[Any](g.labels(u), g.labels(v), p)
    })

  /** Label triple (a < b < c) of in-memory triangle `t`. */
  def triangleLabels(g: ProbGraph, tris: TriangleList, t: Int): (Long, Long, Long) =
    (g.labels(tris.u(t)), g.labels(tris.v(t)), g.labels(tris.w(t)))

  /** Triangles (a < b < c) with their three edge probabilities. */
  val triangles: String =
    """SELECT CAST(e1.u AS BIGINT) AS a, CAST(e1.v AS BIGINT) AS b, CAST(e2.v AS BIGINT) AS c,
      |       CAST(e1.p AS DOUBLE) AS pab, CAST(e3.p AS DOUBLE) AS pac, CAST(e2.p AS DOUBLE) AS pbc
      |FROM e e1
      |JOIN e e2 ON CAST(e2.u AS BIGINT) = CAST(e1.v AS BIGINT)
      |JOIN e e3 ON CAST(e3.u AS BIGINT) = CAST(e1.u AS BIGINT)
      |         AND CAST(e3.v AS BIGINT) = CAST(e2.v AS BIGINT)""".stripMargin

  /** The six-edge join behind every 4-clique {a < b < c < d}. */
  private val cliqueJoin =
    """FROM e e1
      | JOIN e e2 ON CAST(e2.u AS BIGINT) = CAST(e1.v AS BIGINT)
      | JOIN e e3 ON CAST(e3.u AS BIGINT) = CAST(e1.u AS BIGINT)
      |          AND CAST(e3.v AS BIGINT) = CAST(e2.v AS BIGINT)
      | JOIN e e4 ON CAST(e4.u AS BIGINT) = CAST(e2.v AS BIGINT)
      | JOIN e e5 ON CAST(e5.u AS BIGINT) = CAST(e1.v AS BIGINT)
      |          AND CAST(e5.v AS BIGINT) = CAST(e4.v AS BIGINT)
      | JOIN e e6 ON CAST(e6.u AS BIGINT) = CAST(e1.u AS BIGINT)
      |          AND CAST(e6.v AS BIGINT) = CAST(e4.v AS BIGINT)""".stripMargin

  /** Number of 4-cliques, as column `cnt`. */
  val cliqueCount: String = s"SELECT COUNT(*) AS cnt FROM\n(SELECT 1 $cliqueJoin)"

  /** One row per (4-clique, member triangle x < y < z) with the member's
    * Pr(E_i): the product of the three edges from the clique's fourth
    * vertex to the triangle.
    */
  val incidence: String =
    s"""WITH k AS (
       |SELECT CAST(e1.u AS BIGINT) AS a, CAST(e1.v AS BIGINT) AS b,
       |       CAST(e2.v AS BIGINT) AS c, CAST(e4.v AS BIGINT) AS d,
       |       CAST(e1.p AS DOUBLE) AS pab, CAST(e3.p AS DOUBLE) AS pac, CAST(e6.p AS DOUBLE) AS pad,
       |       CAST(e2.p AS DOUBLE) AS pbc, CAST(e5.p AS DOUBLE) AS pbd, CAST(e4.p AS DOUBLE) AS pcd
       |$cliqueJoin)
       |SELECT a AS x, b AS y, c AS z, pad * pbd * pcd AS pre FROM k
       |UNION ALL SELECT a, b, d, pac * pbc * pcd FROM k
       |UNION ALL SELECT a, c, d, pab * pbc * pbd FROM k
       |UNION ALL SELECT b, c, d, pab * pac * pad FROM k""".stripMargin
}
