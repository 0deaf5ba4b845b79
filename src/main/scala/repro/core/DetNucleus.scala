package repro.core

import repro.cliques.{FourCliques, Triangles}
import repro.graph.ProbGraph
import repro.prob.Sampler

/** Deterministic (3,4)-nucleus decomposition (Definition 3, [47]) — the
  * substrate the global / weakly-global algorithms check each sampled
  * possible world with, and the k = ∞-probability degenerate case of the
  * probabilistic kernel (all probabilities 1, κ = alive 4-clique count).
  */
object DetNucleus {

  /** The clique structure of a graph `graph`, built once, over which a
    * batch of up to 64 possible worlds is one `Long` per edge in
    * `graph.edges` order, world w in bit w (the §6 space note: a world is a
    * bit per edge). A triangle is alive in a world iff its 3 edges are, a
    * 4-clique iff its 4 member triangles are.
    *
    * It also holds one batch's words, allocated once and reused by every
    * batch: `edgeW` for the sampler to fill, the alive words `triW` and
    * `cliqueW` that [[setAlive]] sets from it, and the checks' scratch. The
    * two world checks are stated here once, over a whole batch: [[nuclei]]
    * (g) and [[prune]] (w). One structure serves one thread.
    */
  final class WorldStructure(val graph: ProbGraph) {
    /** Each edge's `Sampler.threshold`, in `graph.edges` order: what each world draws against. */
    val thresholds = new Array[Long](graph.m)
    locally { var e = 0; graph.forEachEdge { (_, s) => thresholds(e) = Sampler.threshold(graph.adjProb(s)); e += 1 } }
    val cs: FourCliques.CliqueStructure  = FourCliques.build(graph)
    /** Flat, 3 edge ids per triangle. */
    val triEdges: Array[Int] = Triangles.edgeIds(graph, cs.tris)

    private[core] val edgeW   = new Array[Long](graph.m)
    /** After [[prune]], the level-k survivors. */
    private[core] val triW    = new Array[Long](cs.nTriangles)
    private[this] val cliqueW = new Array[Long](cs.nCliques)
    /** g's s-connectivity: the worlds in which each triangle is reached. */
    private[this] val reach   = new Array[Long](cs.nTriangles)
    /** Saturating counter planes: `ge(i)`, the worlds with more than i of the words seen. */
    private[this] val ge      = new Array[Long](cs.triCliques.foldLeft(0)(_ max _.length))
    private[this] val ct      = cs.cliqueTris

    /** Sets each triangle's word to the AND of its 3 edges', each clique's to that of its 4 triangles'. */
    private[core] def setAlive(): Unit = {
      var t = 0
      while (t < triW.length) {
        triW(t) = edgeW(triEdges(3 * t)) & edgeW(triEdges(3 * t + 1)) & edgeW(triEdges(3 * t + 2)); t += 1
      }
      var c = 0
      while (c < cliqueW.length) {
        cliqueW(c) = triW(ct(4 * c)) & triW(ct(4 * c + 1)) & triW(ct(4 * c + 2)) & triW(ct(4 * c + 3)); c += 1
      }
    }

    /** The worlds in which at least k of triangle t's cliques are alive:
      * all for k ≤ 0, none for k above its clique count.
      */
    private def atLeast(t: Int, k: Int): Long = {
      val cl = cs.triCliques(t)
      if (k <= 0) return -1L
      if (k > cl.length) return 0L
      java.util.Arrays.fill(ge, 0, k, 0L)
      var j = 0
      while (j < cl.length) {
        val x = cliqueW(cl(j))
        var i = math.min(j, k - 1)
        while (i > 0) { ge(i) |= ge(i - 1) & x; i -= 1 }
        ge(0) |= x
        j += 1
      }
      ge(k - 1)
    }

    /** The worlds of `valid` in this batch that are deterministic k-nuclei.
      * Definition 3: a world is one iff it has a 4-clique, (1) every present
      * edge lies in a 4-clique (it is a union of 4-cliques), (2) every alive
      * triangle has 4-clique support ≥ k, and (3) the triangles of its
      * 4-cliques are s-connected (share-a-4-clique connectivity). Each check
      * clears the worlds that fail it, all at once; they run cheapest first
      * and stop when no world is left. All are conjunctions, so the order
      * does not change the answer. Consumes `edgeW`.
      */
    private[core] def nuclei(valid: Long, k: Int): Long = {
      var ok = valid
      // (2)
      var t = 0
      while (t < triW.length && ok != 0L) { ok &= ~triW(t) | atLeast(t, k); t += 1 }
      if (ok == 0L) return 0L
      // (1): an edge is covered in the worlds where one of its triangles is in a 4-clique
      t = 0
      while (t < triW.length) {
        val cl = cs.triCliques(t)
        var inClique = 0L; var j = 0
        while (j < cl.length) { inClique |= cliqueW(cl(j)); j += 1 }
        j = 3 * t
        while (j < 3 * t + 3) { edgeW(triEdges(j)) &= ~inClique; j += 1 }
        t += 1
      }
      var e = 0
      while (e < edgeW.length) { ok &= ~edgeW(e); e += 1 }
      if (ok == 0L) return 0L
      // a 4-clique, and (3): each world is seeded at its first alive clique, reach
      // spreads over alive cliques until a pass adds nothing, and every alive
      // clique must be reached
      java.util.Arrays.fill(reach, 0L)
      var seen = 0L; var spread = true
      while (spread) {
        spread = false
        var c = 0
        while (c < cliqueW.length) {
          val a = ct(4 * c); val b = ct(4 * c + 1); val d = ct(4 * c + 2); val f = ct(4 * c + 3)
          val r = (reach(a) | reach(b) | reach(d) | reach(f) | ~seen) & cliqueW(c)
          seen |= cliqueW(c)
          if ((r & ~(reach(a) & reach(b) & reach(d) & reach(f))) != 0L) {
            reach(a) |= r; reach(b) |= r; reach(d) |= r; reach(f) |= r
            spread = true
          }
          c += 1
        }
      }
      var c = 0
      while (c < cliqueW.length) { ok &= ~cliqueW(c) | reach(ct(4 * c)); c += 1 }
      ok & seen
    }

    /** Level-k pruning of this batch, all worlds at once: a triangle keeps
      * only the worlds in which at least k of its cliques are still alive,
      * and the worlds it loses are masked out of its cliques, until a pass
      * changes nothing. That is the greatest fixpoint, the one the one-world
      * peel reaches, so `triW` is left holding each world's triangles with
      * ν_det ≥ k (all alive ones for k ≤ 0).
      */
    private[core] def prune(k: Int): Unit = {
      var pruned = k > 0
      while (pruned) {
        pruned = false
        var t = 0
        while (t < triW.length) {
          val lost = if (triW(t) == 0L) 0L else triW(t) & ~atLeast(t, k)
          if (lost != 0L) {
            triW(t) &= ~lost
            val cl = cs.triCliques(t)
            var j = 0
            while (j < cl.length) { cliqueW(cl(j)) &= ~lost; j += 1 }
            pruned = true
          }
          t += 1
        }
      }
    }
  }

  /** ν_det per triangle of `g` (edge probabilities ignored): the largest k
    * such that the triangle belongs to a deterministic k-(3,4)-nucleus.
    * Triangles in no 4-clique get ν_det = 0. This rebuilds the structure;
    * it is the reference the per-world [[levelSet]] is tested against.
    */
  def decompose(g: ProbGraph): (FourCliques.CliqueStructure, Array[Int]) = {
    val cs = FourCliques.build(g)
    // with all probabilities 1, Pr[ζ ≥ k] = 1 for k ≤ c: κ = alive count
    (cs, ProbPeeling.peel(LocalNucleus.kernelInput(cs), 0.5, (_, probs, _) => probs.length).nu)
  }

  /** Is the whole graph `g` (probabilities ignored) a deterministic
    * k-nucleus? The world predicate below with every edge present.
    */
  def isKNucleus(g: ProbGraph, k: Int): Boolean = isKNucleus(new WorldStructure(g), Array.fill(g.m)(true), k)

  /** Is the world `mask` of `ws` a deterministic k-nucleus? `ws.nuclei` on
    * a batch of one; afterwards `ws.triW` holds the world's triangles.
    */
  def isKNucleus(ws: WorldStructure, mask: Array[Boolean], k: Int): Boolean = { load(ws, mask); ws.nuclei(1L, k) != 0L }

  /** The triangles of the world `mask` with ν_det ≥ k: `ws.prune` on a batch of one. */
  def levelSet(ws: WorldStructure, mask: Array[Boolean], k: Int): Array[Boolean] = {
    load(ws, mask); ws.prune(k)
    ws.triW.map(_ != 0L)
  }

  private def load(ws: WorldStructure, mask: Array[Boolean]): Unit = {
    mask.indices.foreach(e => ws.edgeW(e) = if (mask(e)) 1L else 0L)
    ws.setAlive()
  }
}
