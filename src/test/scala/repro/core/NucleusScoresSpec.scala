package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{GraphSql, Oracle}
import repro.cliques.FourCliques
import repro.cliques.Incidence._
import repro.graph.{GraphGen, ProbGraph}

/** Initial nucleus scores κ (Algorithm 1, line 3) against the DuckDB
  * oracle. κ(Δ) depends only on Pr(Δ) and Δ's Pr(E_i) multiset, so SQL over
  * the edge table (the triangles and the 6-edge-join 4-clique incidence)
  * fixes it; the tests score those SQL rows and compare them triangle by
  * triangle with the kernel's initial κ, for both DP and AP scorers.
  */
class NucleusScoresSpec extends AnyFunSuite {

  /** Per label triple: (support c_Δ, κ) from the SQL triangles and incidence. */
  private def sqlKappa(g: ProbGraph, theta: Double, mode: LocalNucleus.Mode): Map[(Long, Long, Long), (Int, Int)] = {
    val e = "e" -> GraphSql.edges(g)
    val prEs = Oracle.query(GraphSql.incidence, e).rows
      .groupBy { case Seq(x: Long, y: Long, z: Long, _) => (x, y, z) }
      .view.mapValues(_.map { case Seq(_, _, _, pre: Double) => pre }.toArray).toMap
    val score = LocalNucleus.scorer(mode)
    Oracle.query(GraphSql.triangles, e).rows.map {
      case Seq(a: Long, b: Long, c: Long, pab: Double, pac: Double, pbc: Double) =>
        val probs = prEs.getOrElse((a, b, c), Array.empty[Double])
        (a, b, c) -> ((probs.length, score(pab * pac * pbc, probs, theta)))
    }.toMap
  }

  private def check(name: String, scale: Double, theta: Double, mode: LocalNucleus.Mode): Unit = {
    val g  = GraphGen.dataset(name, scale)
    val cs = FourCliques.build(g)
    val inMem = ProbPeeling.peel(LocalNucleus.kernelInput(cs), theta, LocalNucleus.scorer(mode)).initialKappa
    val sql = sqlKappa(g, theta, mode)
    assert(sql.size == cs.nTriangles)
    for (t <- 0 until cs.nTriangles) {
      val key = GraphSql.triangleLabels(g, cs.tris, t)
      val (support, kappa) = sql(key)
      assert(support == cs.support(t), s"$name support of $key")
      assert(kappa == inMem(t), s"$name κ of $key (mode $mode)")
    }
  }

  test("SQL-incidence DP κ matches the kernel on krogan (θ = 0.2)") {
    check("krogan", 0.2, 0.2, LocalNucleus.DP)
  }

  test("SQL-incidence DP κ matches the kernel on flickr (θ = 0.1)") {
    check("flickr", 0.05, 0.1, LocalNucleus.DP)
  }

  test("SQL-incidence AP κ matches the kernel on krogan (θ = 0.3)") {
    check("krogan", 0.2, 0.3, LocalNucleus.AP)
  }

  test("SQL-incidence AP κ matches the kernel on dblp (θ = 0.2)") {
    check("dblp", 0.05, 0.2, LocalNucleus.AP)
  }

  test("triangles with no 4-clique get support 0 and κ ∈ {-1, 0}") {
    val zeroSupport = sqlKappa(GraphGen.dataset("dblp", 0.03), 0.2, LocalNucleus.DP).values.filter(_._1 == 0)
    assert(zeroSupport.nonEmpty)
    zeroSupport.foreach { case (_, kappa) => assert(kappa == 0 || kappa == -1) }
  }
}
