package repro.core

import repro.graph.ProbGraph
import repro.prob.Sampler
import scala.util.Random

/** w-NuDecomp (Section 6, Algorithm 3): approximate weakly-global nucleus
  * decomposition. Every w-(k,θ)-nucleus is an ℓ-(k,θ)-nucleus, so each
  * local nucleus H is a candidate: sample n worlds of H, and credit a
  * triangle whenever it lies in a k-nucleus of the world (global_score),
  * i.e. survives the world's level-k pruning. Triangles with
  * global_score/n ≥ θ are grouped into connected (shared-4-clique) unions.
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
    val g     = local.graph
    val theta = local.theta
    local.nucleiAt(k).zipWithIndex.flatMap { case (cand, ci) =>
      // candidate subgraph with original labels, its structure built once
      val h     = ProbGraph(cand.edges.toIndexedSeq.map { case (u, v, p) => (g.labels(u), g.labels(v), p) })
      val ws    = new DetNucleus.WorldStructure(h)
      val hcs   = ws.cs
      val rnd   = new Random(seed + ci)
      val score = new Array[Int](hcs.nTriangles)
      var s = 0
      while (s < nSamples) {
        val inLevel = DetNucleus.levelSet(ws, Sampler.sampleMask(ws.edges, rnd), k)
        var t = 0
        while (t < hcs.nTriangles) { if (inLevel(t)) score(t) += 1; t += 1 }
        s += 1
      }
      // qualifying triangles of the candidate, with their estimated tails
      val tails   = score.map(_.toDouble / nSamples)
      val qualify = tails.map(_ >= theta)
      // connected unions via shared 4-cliques of the candidate
      val uf = new UnionFind(hcs.nTriangles)
      var c = 0
      while (c < hcs.nCliques) {
        val ms = hcs.members(c).filter(qualify(_))
        var i = 1
        while (i < ms.length) { uf.union(ms(i), ms(0)); i += 1 }
        c += 1
      }
      uf.components(qualify(_)).map { triIds =>
        val (vs, es) = LocalNucleus.span(h, hcs, triIds)
        GlobalNucleus.ProbNucleus(k, vs.map(h.labels), es.map { case (u, v, p) => (h.labels(u), h.labels(v), p) },
                                  triIds.map(tails).min)
      }
    }
  }
}
