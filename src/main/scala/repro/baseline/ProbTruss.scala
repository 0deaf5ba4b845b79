package repro.baseline

import repro.cliques.Triangles
import repro.core.ProbPeeling
import repro.graph.ProbGraph
import repro.prob.PoissonBinomial

/** Probabilistic local (k,γ)-truss decomposition (Huang, Lu, Lakshmanan,
  * SIGMOD 2016) — the second baseline of Section 7.4. The score of an edge
  * e = (u,v) is the largest k with p(e)·Pr[ζ ≥ k] ≥ γ where
  * ζ = Σ_w Bernoulli(p(u,w)·p(v,w)) over common neighbours w — a
  * Poisson-binomial over the edge's "wing" pairs (disjoint edge sets, hence
  * independent). Kernel instance: items are edges (existence probability
  * p(e)), groups are triangles (a group dies when any of its three edges is
  * peeled).
  */
object ProbTruss {

  final case class Decomposition(graph: ProbGraph, gamma: Double,
                                 edgeList: Array[(Int, Int, Double)],
                                 trussNumber: Array[Int]) {
    def kMax: Int = if (trussNumber.isEmpty) 0 else math.max(0, trussNumber.max)

    /** Connected components of the subgraph of edges with truss number ≥ k. */
    def trussesAt(k: Int): Seq[ProbGraph] = {
      val kept = edgeList.zipWithIndex.collect { case (e, i) if trussNumber(i) >= k => e }
      ProbCore.components(graph, kept)
    }
  }

  def decompose(g: ProbGraph, gamma: Double): Decomposition = {
    val edges    = g.edges
    val tris     = Triangles.enumerate(g)
    val triEdges = Triangles.edgeIds(g, tris)

    val groupItems = new Array[Array[Int]](tris.size)
    val groupPrE   = new Array[Array[Double]](tris.size)
    val degCount   = new Array[Int](edges.length)
    var t = 0
    while (t < tris.size) {
      val (euv, euw, evw) = (triEdges(3 * t), triEdges(3 * t + 1), triEdges(3 * t + 2))
      val (puv, puw, pvw) = (edges(euv)._3, edges(euw)._3, edges(evw)._3)
      groupItems(t) = Array(euv, euw, evw)
      groupPrE(t)   = Array(puw * pvw, puv * pvw, puv * puw) // the two wing edges
      degCount(euv) += 1; degCount(euw) += 1; degCount(evw) += 1
      t += 1
    }
    val itemGroups = Array.tabulate(edges.length)(e => new Array[Int](degCount(e)))
    val cursor     = new Array[Int](edges.length)
    t = 0
    while (t < tris.size) {
      groupItems(t).foreach { e => itemGroups(e)(cursor(e)) = t; cursor(e) += 1 }
      t += 1
    }
    val in = ProbPeeling.Input(edges.map(_._3), groupItems, groupPrE, itemGroups)
    val res = ProbPeeling.peel(in, gamma, (p, probs, th) => PoissonBinomial.kappaFast(p, probs, th))
    Decomposition(g, gamma, edges, res.nu)
  }
}
