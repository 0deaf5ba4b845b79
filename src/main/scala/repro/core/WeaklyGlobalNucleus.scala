package repro.core

/** w-NuDecomp (Section 6, Algorithm 3): approximate weakly-global nucleus
  * decomposition. Every w-(k,θ)-nucleus is an ℓ-(k,θ)-nucleus, so each
  * local nucleus H is a candidate: sample n worlds of H, and credit a
  * triangle whenever it lies in a k-nucleus of the world (global_score),
  * i.e. survives the world's level-k pruning. Triangles with
  * global_score/n ≥ θ are grouped into connected (shared-4-clique) unions.
  * World counts and reports go through g's path: `GlobalNucleus.worldCounts`,
  * crediting each world's level-k survivors (`WorldStructure.prune`), and
  * `GlobalNucleus.nucleus`.
  */
object WeaklyGlobalNucleus {

  /** All w-(k,θ)-nuclei for k = 1..kMax. */
  def decompose(local: LocalNucleus.Decomposition, nSamples: Int, seed: Long): Seq[GlobalNucleus.ProbNucleus] = {
    GlobalNucleus.requireSamples(nSamples)
    (1 to local.kMax).flatMap(k => decomposeAt(local, k, nSamples, seed + 7919L * k))
  }

  /** w-(k,θ)-nuclei at one level k. */
  def decomposeAt(local: LocalNucleus.Decomposition, k: Int,
                  nSamples: Int, seed: Long): Seq[GlobalNucleus.ProbNucleus] = {
    GlobalNucleus.requireSamples(nSamples)
    local.nucleiAt(k).zipWithIndex.flatMap { case (cand, ci) =>
      // candidate graph from the nucleus's edges (`local.subgraph` would span its triangles again)
      val ws    = new DetNucleus.WorldStructure(local.graph.subgraph(cand.edges))
      val hcs   = ws.cs
      val tails = weaklyCounts(ws, k, nSamples, seed + ci).map(_.toDouble / nSamples)
      // qualifying triangles of the candidate, grouped into connected unions
      // via shared 4-cliques of the candidate
      val qualify = tails.map(_ >= local.theta)
      val uf = new UnionFind(hcs.nTriangles)
      (0 until hcs.nCliques).foreach { c =>
        val ms = hcs.members(c).filter(qualify(_))
        ms.foreach(uf.union(_, ms(0)))
      }
      uf.components(qualify(_)).map { triIds =>
        val (vs, es) = LocalNucleus.span(ws.graph, hcs.tris, triIds)()
        GlobalNucleus.nucleus(ws.graph, k, vs, es, triIds.map(tails).min)
      }
    }
  }

  /** w's success count per triangle of `ws` over n seeded worlds: a world
    * credits its level-k survivors.
    */
  private[core] def weaklyCounts(ws: DetNucleus.WorldStructure, k: Int, nSamples: Int, seed: Long): Array[Int] =
    GlobalNucleus.worldCounts(ws, nSamples, seed) { valid => ws.prune(k); valid }
}
