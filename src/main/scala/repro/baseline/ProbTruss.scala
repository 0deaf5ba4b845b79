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

  /** `trussNumber(e)` is the truss number of edge e of `graph.edges`. */
  final case class Decomposition(graph: ProbGraph, gamma: Double, trussNumber: Array[Int]) {
    def kMax: Int = if (trussNumber.isEmpty) 0 else math.max(0, trussNumber.max)

    /** The edges `trussNumber` is indexed by: `graph.edges`, boxed on each call. */
    def edgeList: Array[(Int, Int, Double)] = graph.edges

    /** Connected components of the subgraph of edges with truss number ≥ k. */
    def trussesAt(k: Int): Seq[ProbGraph] = {
      val ids = graph.edgeIds
      ProbCore.components(graph, (_, s) => trussNumber(ids(s)) >= k)
    }
  }

  def decompose(g: ProbGraph, gamma: Double): Decomposition =
    Decomposition(g, gamma, ProbPeeling.peel(kernelInput(g), gamma, new PoissonBinomial.KappaDp).nu)

  /** The peeling-kernel input: items are the edges of `g.edges`, groups are
    * triangles at arity 3, each member's Pr(E) the product of its two wings.
    */
  def kernelInput(g: ProbGraph): ProbPeeling.Input = {
    val tris  = Triangles.enumerate(g)
    val slots = tris.slots // (uv, uw, vw) per triangle
    val wings = new Array[Double](slots.length) // each member's two wing edges
    var i = 0
    while (i < slots.length) {
      val puv = g.adjProb(slots(i)); val puw = g.adjProb(slots(i + 1)); val pvw = g.adjProb(slots(i + 2))
      wings(i) = puw * pvw; wings(i + 1) = puv * pvw; wings(i + 2) = puv * puw
      i += 3
    }
    ProbPeeling.Input.ofGroups(g.edgeProbs, 3, Triangles.edgeIds(g, tris), wings)
  }
}
