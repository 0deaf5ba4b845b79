package repro.core

import repro.graph.ProbGraph
import repro.prob.{Sampler, WorldRng}
import scala.collection.mutable

/** g-NuDecomp (Section 6, Algorithm 2): approximate global nucleus
  * decomposition. Candidates are grown inside the union C_k of the
  * ℓ-(k,θ)-nuclei (every g-(k,θ)-nucleus is contained in one), closed so
  * every triangle has ≥ k 4-cliques in the candidate, then validated by
  * Monte-Carlo sampling of n possible worlds against the indicator
  * 1_g(G,Δ,k): the sampled world must itself be a deterministic k-nucleus
  * containing Δ.
  *
  * g and w share one world-counting loop, [[worldCounts]], and one
  * reporter, [[nucleus]]; both build each candidate's structure with a
  * `DetNucleus.Restrict` of the ℓ graph, one per call.
  */
object GlobalNucleus {

  /** A probabilistic nucleus reported by the g/w algorithms, with original
    * vertex labels so it can be compared across graphs.
    */
  final case class ProbNucleus(
      k: Int,
      vertices: Array[Long],
      edges: Array[(Long, Long, Double)],
      /** estimated min-over-triangles tail probability (Eq. 17) */
      minTail: Double
  ) {
    def toGraph: ProbGraph = ProbGraph(scala.collection.immutable.ArraySeq.unsafeWrapArray(edges))
  }

  /** All g-(k,θ)-nuclei for k = 1..kMax of the local decomposition. */
  def decompose(local: LocalNucleus.Decomposition, nSamples: Int, seed: Long): Seq[ProbNucleus] = {
    requireSamples(nSamples)
    val restrict = new DetNucleus.Restrict(local.graph, local.structure)
    (1 to local.kMax).flatMap(k => at(local, k, nSamples, seed + k, restrict))
  }

  /** Tails are success counts over n worlds: n = 0 would make them NaN. */
  private[core] def requireSamples(nSamples: Int): Unit =
    require(nSamples >= 1, s"Monte-Carlo sample size must be at least 1, got $nSamples")

  /** g-(k,θ)-nuclei at one level k. */
  def decomposeAt(local: LocalNucleus.Decomposition, k: Int,
                  nSamples: Int, seed: Long): Seq[ProbNucleus] = {
    requireSamples(nSamples)
    at(local, k, nSamples, seed, new DetNucleus.Restrict(local.graph, local.structure))
  }

  private def at(local: LocalNucleus.Decomposition, k: Int, nSamples: Int, seed: Long,
                 restrict: DetNucleus.Restrict): Seq[ProbNucleus] = {
    // the span scratch, shared by the level's accepted candidates as by the ℓ sweep
    val seenV = new java.util.BitSet(local.graph.n); val seenE = new java.util.BitSet(local.graph.adj.length)
    candidates(local, k).flatMap { case (t, candTris) =>
      validate(local, candTris, k, nSamples, seed + t, restrict, seenV, seenE)
    }
  }

  /** The level-k candidates, each with the triangle `t` it was grown from
    * (its Monte-Carlo seed offset) and its triangles, ascending.
    */
  private[core] def candidates(local: LocalNucleus.Decomposition, k: Int): Seq[(Int, Array[Int])] = {
    val cs = local.structure
    // k-alive cliques of C_k: all four member triangles have ν ≥ k
    val level = local.cliqueLevels
    // the candidate being grown: its cliques (marked and listed), its triangles in
    // first-touched order and how many of its cliques hold each; cleared once emitted
    val inClosure = new Array[Boolean](cs.nCliques)
    val count     = new Array[Int](cs.nTriangles)
    val cliques   = new Array[Int](cs.nCliques)
    val members   = new Array[Int](cs.nTriangles)
    val under     = new Array[Int](cs.nTriangles)
    var nc = 0; var nm = 0
    def addCliques(tri: Int): Unit = {
      val cl = cs.triCliques(tri)
      var j = 0
      while (j < cl.length) {
        val c = cl(j)
        if (level(c) >= k && !inClosure(c)) {
          inClosure(c) = true; cliques(nc) = c; nc += 1
          var i = 4 * c
          while (i < 4 * c + 4) {
            val m = cs.cliqueTris(i)
            if (count(m) == 0) { members(nm) = m; nm += 1 }
            count(m) += 1; i += 1
          }
        }
        j += 1
      }
    }

    val inCandidate = new Array[Boolean](cs.nTriangles)
    val out         = mutable.ArrayBuffer.empty[(Int, Array[Int])]
    var t = 0
    while (t < cs.nTriangles) {
      if (!inCandidate(t) && local.nu(t) >= k) addCliques(t)
      if (nc > 0) {
        // closure: add all C_k cliques of any member triangle that has fewer than k
        // cliques inside the candidate (Algorithm 2, lines 6-8), in passes over the
        // members under-supported at the pass's start, until one adds nothing
        var before = -1
        while (nc != before) {
          before = nc
          var nUnder = 0
          var i = 0
          while (i < nm) { if (count(members(i)) < k) { under(nUnder) = members(i); nUnder += 1 }; i += 1 }
          while (nUnder > 0) { nUnder -= 1; addCliques(under(nUnder)) }
        }
        val candTris = java.util.Arrays.copyOf(members, nm)
        java.util.Arrays.sort(candTris)
        while (nm > 0) { nm -= 1; inCandidate(members(nm)) = true; count(members(nm)) = 0 }
        while (nc > 0) { nc -= 1; inClosure(cliques(nc)) = false }
        out += ((t, candTris))
      }
      t += 1
    }
    out.toSeq
  }

  /** Monte-Carlo validation of one candidate (Algorithm 2, lines 9-16):
    * its structure is the ℓ structure restricted to its edges, and only an
    * accepted candidate is spanned.
    */
  private def validate(local: LocalNucleus.Decomposition, candTris: Array[Int], k: Int, nSamples: Int, seed: Long,
                       restrict: DetNucleus.Restrict,
                       seenV: java.util.BitSet, seenE: java.util.BitSet): Option[ProbNucleus] = {
    val ws     = restrict(restrict.slotsOf(candTris))
    val counts = globalCounts(ws, k, nSamples, seed)
    // the candidate's triangles among the structure's, which may hold more
    var least = Int.MaxValue; var i = 0
    while (i < candTris.length) {
      least = math.min(least, counts(java.util.Arrays.binarySearch(ws.triIds, candTris(i)))); i += 1
    }
    val minTail = least.toDouble / nSamples
    if (minTail >= local.theta) {
      val (vs, es) = LocalNucleus.span(local.graph, local.structure.tris, candTris)(seenV, seenE)
      Some(nucleus(local.graph, k, vs, es, minTail))
    } else None
  }

  /** g's success count per triangle of `ws` over n seeded worlds (the MC
    * indicator 1_g): a world that is a k-nucleus credits all its triangles.
    */
  private[core] def globalCounts(ws: DetNucleus.WorldStructure, k: Int, nSamples: Int, seed: Long): Array[Int] =
    worldCounts(ws, nSamples, seed)(ws.nuclei(_, k))

  /** How many of n seeded worlds of `ws` credit each of its triangles. The
    * one [[WorldRng]] loop: worlds are drawn into `ws.edgeW` 64 at a time
    * (the last batch holds the rest), and `credited(valid)`, given a bit per
    * world of the batch, returns the worlds whose `ws.triW` it credits.
    */
  private[core] def worldCounts(ws: DetNucleus.WorldStructure, nSamples: Int, seed: Long)
                               (credited: Long => Long): Array[Int] = {
    val counts = new Array[Int](ws.nTriangles)
    val rng    = new WorldRng(seed)
    var s = 0
    while (s < nSamples) {
      val b = math.min(64, nSamples - s)
      Sampler.sampleBatch(ws.thresholds, rng, b, ws.edgeW)
      ws.setAlive()
      val hit = credited(-1L >>> (64 - b))
      var t = 0
      while (t < counts.length) { counts(t) += java.lang.Long.bitCount(ws.triW(t) & hit); t += 1 }
      s += b
    }
    counts
  }

  /** The nucleus with vertices `vs` and edges `es` of `g` (a [[LocalNucleus.span]]), in labels. */
  private[core] def nucleus(g: ProbGraph, k: Int, vs: Array[Int], es: Array[(Int, Int, Double)],
                            minTail: Double): ProbNucleus =
    ProbNucleus(k, vs.map(g.labels), es.map { case (u, v, p) => (g.labels(u), g.labels(v), p) }, minTail)
}
