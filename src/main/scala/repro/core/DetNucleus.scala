package repro.core

import repro.cliques.{FourCliques, Triangles}
import repro.graph.ProbGraph

/** Deterministic (3,4)-nucleus decomposition (Definition 3, [47]) — the
  * substrate the global / weakly-global algorithms check each sampled
  * possible world with, and the k = ∞-probability degenerate case of the
  * probabilistic kernel (all probabilities 1, κ = alive 4-clique count).
  */
object DetNucleus {

  /** The clique structure of a graph `graph`, built once, over which a
    * possible world is an edge mask in `edges` order (the §6 space note: a
    * world is a bit per edge). A triangle is alive in a world iff its 3
    * edges are present, a 4-clique iff its 4 member triangles are alive.
    *
    * It also holds one world's scratch, built once and reused by every
    * world call on it ([[isKNucleus]], [[levelSet]]): `mask` for the sampler
    * to fill, and the per-triangle, per-clique and per-edge buffers of the
    * checks. A buffer a call returns is valid only until the next world call
    * on the same structure, and one structure serves one thread.
    */
  final class WorldStructure(val graph: ProbGraph) {
    val edges: Array[(Int, Int, Double)] = graph.edges
    /** Pr(e) in `edges` order: what each world draws against. */
    val probs: Array[Double]             = graph.edgeProbs
    val cs: FourCliques.CliqueStructure  = FourCliques.build(graph)
    /** Flat, 3 edge ids per triangle. */
    val triEdges: Array[Int] = Triangles.edgeIds(graph, cs.tris)

    /** A world's edge mask, for the sampler to fill. */
    val mask: Array[Boolean] = new Array[Boolean](edges.length)
    /** The last world's triangles: all alive ones after [[isKNucleus]], the
      * level-k survivors after [[levelSet]].
      */
    private[core] val alive   = new Array[Boolean](cs.nTriangles)
    private[core] val clique  = new Array[Boolean](cs.nCliques)
    private[core] val support = new Array[Int](cs.nTriangles)
    private[core] val covered = new Array[Boolean](edges.length)
    /** Each triangle is pushed at most once per world, so one slot each. */
    private[core] val stack   = new Array[Int](cs.nTriangles)
    private[core] val seen    = new Array[Boolean](cs.nTriangles)

    /** One pass sets the world `m`'s alive triangles, alive cliques and
      * each triangle's alive-clique support.
      */
    private[core] def fill(m: Array[Boolean]): Unit = {
      var t = 0
      while (t < cs.nTriangles) {
        alive(t) = m(triEdges(3 * t)) && m(triEdges(3 * t + 1)) && m(triEdges(3 * t + 2))
        support(t) = 0
        t += 1
      }
      val ct = cs.cliqueTris
      var c = 0
      while (c < cs.nCliques) {
        val a = ct(4 * c); val b = ct(4 * c + 1); val d = ct(4 * c + 2); val e = ct(4 * c + 3)
        val on = alive(a) && alive(b) && alive(d) && alive(e)
        clique(c) = on
        if (on) { support(a) += 1; support(b) += 1; support(d) += 1; support(e) += 1 }
        c += 1
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
  def isKNucleus(g: ProbGraph, k: Int): Boolean = {
    val ws = new WorldStructure(g)
    java.util.Arrays.fill(ws.mask, true)
    isKNucleus(ws, ws.mask, k)
  }

  /** Is the world `mask` of `ws` a deterministic k-nucleus? Definition 3:
    * it has an edge and a 4-clique, (1) every present edge lies in a
    * 4-clique (it is a union of 4-cliques), (2) every triangle has 4-clique
    * support ≥ k, and (3) the triangles of its 4-cliques are s-connected
    * (share-a-4-clique connectivity). The checks run cheapest first and stop
    * at the first that fails: support, a 4-clique, coverage, connectivity.
    * Afterwards `ws.alive` holds the world's triangles.
    */
  def isKNucleus(ws: WorldStructure, mask: Array[Boolean], k: Int): Boolean = {
    val cs = ws.cs
    val alive   = ws.alive
    val support = ws.support
    ws.fill(mask)
    // (2), and the triangles in a 4-clique: those with support > 0
    var inClique = 0
    var first    = -1
    var t = 0
    while (t < cs.nTriangles) {
      val s = support(t)
      if (alive(t) && s < k) return false
      if (s > 0) { if (first < 0) first = t; inClique += 1 }
      t += 1
    }
    if (inClique == 0) return false
    // (1): a present edge is covered iff it is an edge of an in-clique triangle
    val covered = ws.covered
    java.util.Arrays.fill(covered, false)
    t = 0
    while (t < cs.nTriangles) {
      if (support(t) > 0) {
        covered(ws.triEdges(3 * t)) = true; covered(ws.triEdges(3 * t + 1)) = true; covered(ws.triEdges(3 * t + 2)) = true
      }
      t += 1
    }
    var e = 0
    while (e < mask.length) { if (mask(e) && !covered(e)) return false; e += 1 }
    // (3): walk alive cliques from the first in-clique triangle; each clique
    // is crossed once (its flag is cleared), each triangle pushed once
    val clique = ws.clique
    val stack  = ws.stack
    val seen   = ws.seen
    java.util.Arrays.fill(seen, false)
    seen(first) = true; stack(0) = first
    var top = 1; var reached = 1
    while (top > 0) {
      top -= 1
      val cl = cs.triCliques(stack(top))
      var j = 0
      while (j < cl.length) {
        val c = cl(j)
        if (clique(c)) {
          clique(c) = false
          var i = 4 * c
          while (i < 4 * c + 4) {
            val m = cs.cliqueTris(i)
            if (!seen(m)) { seen(m) = true; stack(top) = m; top += 1; reached += 1 }
            i += 1
          }
        }
        j += 1
      }
    }
    reached == inClique
  }

  /** The triangles of the world `mask` with ν_det ≥ k: level-k pruning
    * repeatedly drops a triangle with fewer than k alive 4-cliques and kills
    * its cliques; what is left is the world's k-nucleus triangles. Returns
    * `ws.alive`, valid until the next world call on `ws`.
    */
  def levelSet(ws: WorldStructure, mask: Array[Boolean], k: Int): Array[Boolean] = {
    val cs = ws.cs
    val alive   = ws.alive
    val clique  = ws.clique
    val support = ws.support
    val stack   = ws.stack
    ws.fill(mask)
    // each triangle is pushed once: initially below k, or on falling to k − 1
    var top = 0
    var t = 0
    while (t < cs.nTriangles) { if (alive(t) && support(t) < k) { stack(top) = t; top += 1 }; t += 1 }
    while (top > 0) {
      top -= 1
      val dead = stack(top)
      alive(dead) = false
      val cl = cs.triCliques(dead)
      var i = 0
      while (i < cl.length) {
        val c = cl(i)
        if (clique(c)) {
          clique(c) = false
          var j = 4 * c
          while (j < 4 * c + 4) {
            val m = cs.cliqueTris(j)
            support(m) -= 1
            if (alive(m) && support(m) == k - 1) { stack(top) = m; top += 1 }
            j += 1
          }
        }
        i += 1
      }
    }
    alive
  }
}
