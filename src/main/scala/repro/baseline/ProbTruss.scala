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
    val edges = g.edges
    Decomposition(g, gamma, edges, ProbPeeling.peel(kernelInput(g, edges), gamma, PoissonBinomial.kappaFast).nu)
  }

  /** The peeling-kernel input: items are `edges` (= `g.edges`), groups are
    * triangles at arity 3, each member's Pr(E) the product of its two wings.
    */
  def kernelInput(g: ProbGraph, edges: Array[(Int, Int, Double)]): ProbPeeling.Input = {
    val tris     = Triangles.enumerate(g)
    val triEdges = Triangles.edgeIds(g, tris) // (uv, uw, vw) per triangle
    val wings    = new Array[Double](triEdges.length) // each member's two wing edges
    var i = 0
    while (i < triEdges.length) {
      val puv = edges(triEdges(i))._3
      val puw = edges(triEdges(i + 1))._3
      val pvw = edges(triEdges(i + 2))._3
      wings(i) = puw * pvw; wings(i + 1) = puv * pvw; wings(i + 2) = puv * puw
      i += 3
    }
    ProbPeeling.Input.ofGroups(edges.map(_._3), 3, triEdges, wings)
  }
}
