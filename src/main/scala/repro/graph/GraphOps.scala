package repro.graph

import repro.cliques.Triangles

/** Dataset statistics (Table 1 columns): |V|, |E|, d_max, p_avg, |Δ|. */
object GraphOps {

  final case class Stats(nVertices: Long, nEdges: Long, dMax: Int, pAvg: Double, nTriangles: Long)

  def stats(g: ProbGraph): Stats =
    Stats(g.n, g.m, g.maxDegree, g.avgProb, Triangles.count(g))
}
