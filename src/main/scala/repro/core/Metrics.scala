package repro.core

import repro.cliques.Triangles
import repro.graph.ProbGraph

/** Cohesiveness metrics of Section 7.4: probabilistic density (Eq. 19) and
  * probabilistic clustering coefficient (Eq. 20).
  */
object Metrics {

  /** PD(G) = Σ_e p(e) / (|V|·(|V|−1)/2), summed in `g.edges` order. */
  def pd(g: ProbGraph): Double = {
    if (g.n < 2) return 0.0
    var sum = 0.0
    g.forEachEdge((_, s) => sum += g.adjProb(s))
    sum / (g.n.toDouble * (g.n - 1) / 2.0)
  }

  /** PCC(G) = 3·Σ_Δ p(u,v)p(v,w)p(u,w) / Σ_{(u,v),(u,w),v≠w} p(u,v)p(u,w).
    * The denominator sums over unordered wedge pairs at each centre vertex:
    * Σ_u (S_u² − Q_u)/2 with S_u = Σ_v p(u,v), Q_u = Σ_v p(u,v)².
    */
  def pcc(g: ProbGraph): Double = {
    val tris    = Triangles.enumerate(g)
    var num     = 0.0
    var t       = 0
    while (t < tris.size) { num += tris.prob(t); t += 1 }
    var den = 0.0
    var u   = 0
    while (u < g.n) {
      var s = 0.0; var q = 0.0
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { val p = g.adjProb(i); s += p; q += p * p; i += 1 }
      den += (s * s - q) / 2.0
      u += 1
    }
    if (den == 0.0) 0.0 else 3.0 * num / den
  }
}
