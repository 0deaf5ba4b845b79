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

  /** All w-(k,θ)-nuclei for k = 1..kMax, from one sweep of the ℓ levels. */
  def decompose(local: LocalNucleus.Decomposition, nSamples: Int, seed: Long): Seq[GlobalNucleus.ProbNucleus] = {
    GlobalNucleus.requireSamples(nSamples)
    val restrict = new DetNucleus.Restrict(local.graph, local.structure)
    LocalNucleus.components(local, 1, local.kMax).flatMap { case (k, cands) =>
      at(local, k, cands, nSamples, seed + 7919L * k, restrict)
    }
  }

  /** w-(k,θ)-nuclei at one level k. */
  def decomposeAt(local: LocalNucleus.Decomposition, k: Int,
                  nSamples: Int, seed: Long): Seq[GlobalNucleus.ProbNucleus] = {
    GlobalNucleus.requireSamples(nSamples)
    at(local, k, LocalNucleus.components(local, k, k).flatMap(_._2), nSamples, seed,
       new DetNucleus.Restrict(local.graph, local.structure))
  }

  /** Each ℓ-(k,θ)-nucleus, as its triangles `cands(ci)`, is a candidate:
    * its structure is the ℓ structure restricted to the triangles' edges.
    * Its qualifying triangles are grouped by its shared 4-cliques, and each
    * group is reported in ℓ ids.
    */
  private def at(local: LocalNucleus.Decomposition, k: Int, cands: Seq[Array[Int]], nSamples: Int, seed: Long,
                 restrict: DetNucleus.Restrict): Seq[GlobalNucleus.ProbNucleus] = {
    val seenV = new java.util.BitSet(local.graph.n); val seenE = new java.util.BitSet(local.graph.adj.length)
    cands.zipWithIndex.flatMap { case (candTris, ci) =>
      val ws        = restrict(restrict.slotsOf(candTris))
      val counts    = weaklyCounts(ws, k, nSamples, seed + ci)
      val qualifies = (t: Int) => counts(t).toDouble / nSamples >= local.theta
      val uf        = new UnionFind(ws.nTriangles)
      val ct        = ws.cliqueTris
      var c = 0
      while (c < ct.length) {
        var first = -1; var i = c
        while (i < c + 4) {
          if (qualifies(ct(i))) { if (first < 0) first = ct(i) else uf.union(ct(i), first) }
          i += 1
        }
        c += 4
      }
      uf.components(qualifies).map { triIds =>
        // the least count gives the least tail; the ids become ℓ's
        var least = Int.MaxValue; var i = 0
        while (i < triIds.length) { least = math.min(least, counts(triIds(i))); triIds(i) = ws.triIds(triIds(i)); i += 1 }
        val (vs, es) = LocalNucleus.span(local.graph, local.structure.tris, triIds)(seenV, seenE)
        GlobalNucleus.nucleus(local.graph, k, vs, es, least.toDouble / nSamples)
      }
    }
  }

  /** w's success count per triangle of `ws` over n seeded worlds: a world
    * credits its level-k survivors.
    */
  private[core] def weaklyCounts(ws: DetNucleus.WorldStructure, k: Int, nSamples: Int, seed: Long): Array[Int] =
    GlobalNucleus.worldCounts(ws, nSamples, seed) { valid => ws.prune(k); valid }
}
