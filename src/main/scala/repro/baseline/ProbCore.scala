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
    def coresAt(k: Int): Seq[ProbGraph] =
      components(graph, (u, s) => coreNumber(u) >= k && coreNumber(graph.adj(s)) >= k)
  }

  def decompose(g: ProbGraph, eta: Double): Decomposition =
    Decomposition(g, eta, ProbPeeling.peel(kernelInput(g), eta, PoissonBinomial.kappaFast).nu)

  /** The peeling-kernel input: items are vertices (itemProb 1), groups are
    * the edges at arity 2 with Pr(E) = (p, p).
    */
  def kernelInput(g: ProbGraph): ProbPeeling.Input = {
    // one group per edge (u, v), u < v, in `g.edges` order
    val ends = new Array[Int](2 * g.m)
    val prE  = new Array[Double](2 * g.m)
    var e = 0
    g.forEachEdge { (u, s) => ends(e) = u; ends(e + 1) = g.adj(s); prE(e) = g.adjProb(s); prE(e + 1) = g.adjProb(s); e += 2 }
    ProbPeeling.Input.ofGroups(Array.fill(g.n)(1.0), 2, ends, prE)
  }

  /** Connected components (via shared vertices) of the kept edges of `g`, as
    * labeled probabilistic subgraphs: `keep(u, s)` says whether the edge at
    * slot s of row u, u < g.adj(s), is kept. The components come in order of
    * their least vertex, and each lists its edges in `g.edges` order, so
    * neither depends on how the union-find links its roots.
    */
  private[baseline] def components(g: ProbGraph, keep: (Int, Int) => Boolean): Seq[ProbGraph] = {
    val uf      = new UnionFind(g.n)
    val touched = new Array[Boolean](g.n)
    g.forEachEdge { (u, s) => if (keep(u, s)) { uf.union(u, g.adj(s)); touched(u) = true; touched(g.adj(s)) = true } }
    uf.components(touched(_)).map { vs =>
      val es = Array.newBuilder[(Int, Int, Double)]
      vs.foreach { u =>
        var s = g.offsets(u)
        while (s < g.offsets(u + 1)) { if (u < g.adj(s) && keep(u, s)) es += ((u, g.adj(s), g.adjProb(s))); s += 1 }
      }
      g.subgraph(es.result())
    }
  }
}
