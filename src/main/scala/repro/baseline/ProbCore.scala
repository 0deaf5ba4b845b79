package repro.baseline

import repro.core.{ProbPeeling, UnionFind}
import repro.graph.ProbGraph
import repro.prob.PoissonBinomial

/** Probabilistic (k,η)-core decomposition (Bonchi et al., KDD 2014) — the
  * first baseline of Section 7.4. The η-degree of a vertex v is the largest
  * k with Pr[deg(v) ≥ k] ≥ η, a Poisson-binomial tail over the incident
  * edge probabilities; peeling the minimum η-degree vertex yields the core
  * number per vertex. Expressed as an instance of the shared kernel: items
  * are vertices (existence probability 1), groups are edges (a group dies
  * when either endpoint is peeled).
  */
object ProbCore {

  final case class Decomposition(graph: ProbGraph, eta: Double, coreNumber: Array[Int]) {
    def kMax: Int = if (coreNumber.isEmpty) 0 else math.max(0, coreNumber.max)

    /** Connected components of the subgraph induced by vertices with core
      * number ≥ k (the (k,η)-cores).
      */
    def coresAt(k: Int): Seq[ProbGraph] = components(graph, keptEdges(k))

    /** The edges of `graph.edges`, in its order, whose ends both have core number ≥ k. */
    private[baseline] def keptEdges(k: Int): Array[(Int, Int, Double)] = {
      val kept = Array.newBuilder[(Int, Int, Double)]
      var u = 0
      while (u < graph.n) {
        if (coreNumber(u) >= k) {
          var i = graph.offsets(u)
          while (i < graph.offsets(u + 1)) {
            val v = graph.adj(i)
            if (u < v && coreNumber(v) >= k) kept += ((u, v, graph.adjProb(i)))
            i += 1
          }
        }
        u += 1
      }
      kept.result()
    }
  }

  def decompose(g: ProbGraph, eta: Double): Decomposition =
    Decomposition(g, eta, ProbPeeling.peel(kernelInput(g), eta, PoissonBinomial.kappaFast).nu)

  /** The peeling-kernel input: items are vertices (itemProb 1), groups are
    * the edges at arity 2 with Pr(E) = (p, p).
    */
  def kernelInput(g: ProbGraph): ProbPeeling.Input = {
    // one group per edge (u, v), u < v, in `g.edges` order: the CSR rows' upper halves
    val ends = new Array[Int](2 * g.m)
    val prE  = new Array[Double](2 * g.m)
    var e = 0; var u = 0
    while (u < g.n) {
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) {
        val v = g.adj(i)
        if (u < v) { ends(e) = u; ends(e + 1) = v; prE(e) = g.adjProb(i); prE(e + 1) = g.adjProb(i); e += 2 }
        i += 1
      }
      u += 1
    }
    ProbPeeling.Input.ofGroups(Array.fill(g.n)(1.0), 2, ends, prE)
  }

  /** Connected components (via shared vertices) of a kept edge list, as
    * labeled probabilistic subgraphs.
    */
  private[baseline] def components(g: ProbGraph, kept: Array[(Int, Int, Double)]): Seq[ProbGraph] = {
    val uf = new UnionFind(g.n)
    kept.foreach { case (u, v, _) => uf.union(u, v) }
    kept.groupBy { case (u, _, _) => uf.find(u) }.values.toSeq.map(es => g.subgraph(es))
  }
}
