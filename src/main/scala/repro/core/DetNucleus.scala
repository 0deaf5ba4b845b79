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

  /** The clique structure of some edges of a graph, over which a batch of
    * up to 64 possible worlds is one `Long` per edge, world w in bit w (the
    * §6 space note: a world is a bit per edge). A triangle is alive in a
    * world iff its 3 edges are, a 4-clique iff its 4 member triangles are.
    * [[Restrict]] builds it from the graph's own clique structure.
    *
    * It also holds one batch's words, allocated once and reused by every
    * batch: `edgeW` for the sampler to fill, the alive words `triW` and
    * `cliqueW` that [[setAlive]] sets from it, and the checks' scratch. The
    * two world checks are stated here once, over a whole batch: [[nuclei]]
    * (g) and [[prune]] (w). One structure serves one thread.
    *
    * @param thresholds each edge's `Sampler.threshold`: what each world draws against
    * @param triEdges   flat, 3 edge ids per triangle
    * @param cliqueTris flat, 4 triangle ids per 4-clique
    * @param triCliques per triangle, its 4-cliques, ascending
    * @param triIds     per triangle, its id in the graph's clique structure, ascending
    */
  final class WorldStructure private[core] (
      val thresholds: Array[Long],
      val triEdges: Array[Int],
      val cliqueTris: Array[Int],
      val triCliques: Array[Array[Int]],
      val triIds: Array[Int]
  ) {
    def nTriangles: Int = triIds.length
    def nCliques: Int   = cliqueTris.length / 4

    private[core] val edgeW   = new Array[Long](thresholds.length)
    /** After [[prune]], the level-k survivors. */
    private[core] val triW    = new Array[Long](nTriangles)
    private[this] val cliqueW = new Array[Long](nCliques)
    /** g's s-connectivity: the worlds in which each triangle is reached. */
    private[this] val reach   = new Array[Long](nTriangles)
    /** Saturating counter planes: `ge(i)`, the worlds with more than i of the words seen. */
    private[this] val ge      = new Array[Long](maxLength(triCliques))
    private[this] val ct      = cliqueTris

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
      val cl = triCliques(t)
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
        val cl = triCliques(t)
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
            val cl = triCliques(t)
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
    * it is the reference the batch pruning [[WorldStructure.prune]] is
    * tested against.
    */
  def decompose(g: ProbGraph): (FourCliques.CliqueStructure, Array[Int]) = {
    val cs = FourCliques.build(g)
    // with all probabilities 1, Pr[ζ ≥ k] = 1 for k ≤ c: κ = alive count
    (cs, ProbPeeling.peel(LocalNucleus.kernelInput(cs), 0.5, (_, probs, _) => probs.length).nu)
  }

  /** Is the whole graph `g` (probabilities ignored) a deterministic
    * k-nucleus? [[WorldStructure.nuclei]] on a batch of one world, the
    * world with every edge present.
    */
  def isKNucleus(g: ProbGraph, k: Int): Boolean = {
    val ws = worldStructure(g, FourCliques.build(g))
    java.util.Arrays.fill(ws.edgeW, 1L); ws.setAlive()
    ws.nuclei(1L, k) != 0L
  }

  /** The structure of all of `g`, whose clique structure is `cs`: every
    * edge, an edge in no triangle included, so coverage still sees it.
    */
  private[core] def worldStructure(g: ProbGraph, cs: FourCliques.CliqueStructure): WorldStructure = {
    val slots = new Array[Int](g.m)
    var e = 0
    g.forEachEdge { (_, s) => slots(e) = s; e += 1 }
    new Restrict(g, cs)(slots)
  }

  /** Builds the [[WorldStructure]] of any set of edges of `g` from `g`'s
    * clique structure `cs`, with no graph, listing or lookup of its own.
    * The set's structure is `cs` restricted to it:
    *  - edges: the set, given as upper CSR slots (row u, u < adj(slot)),
    *    ascending, which is `edges` order in the graph of the set;
    *  - triangles: those of `cs` whose 3 slots are in the set, ascending,
    *    found in each slot's (u, v, ·) block of the lexicographic listing;
    *    for a candidate, also those its edges close that are not its own;
    *  - 4-cliques: those of `cs` whose 4 triangles are in, each taken from
    *    its least member, in `cs` order; and `triCliques` rows ascending.
    * Each is in the order the set's own graph would list it. The slot and
    * triangle marks are allocated once per `Restrict` and left clear by
    * every call, so a level's candidates share one; one serves one thread.
    */
  final class Restrict(g: ProbGraph, cs: FourCliques.CliqueStructure) {
    private[this] val tris   = cs.tris
    private[this] val ct     = cs.cliqueTris
    private[this] val index  = new Triangles.Index(g, tris)
    /** slot → 1 + the set's id of its edge; 0 outside the set */
    private[this] val edgeOf = new Array[Int](g.adj.length)
    /** triangle → 1 + its id in the set's structure; 0 outside it */
    private[this] val triOf  = new Array[Int](cs.nTriangles)
    /** the set's triangles as found, grown as needed */
    private[this] var found  = new Array[Int](64)

    /** The distinct slots of the triangles `triIds`, ascending. */
    def slotsOf(triIds: Array[Int]): Array[Int] = {
      val buf = new Array[Int](3 * triIds.length)
      var n = 0
      var i = 0
      while (i < triIds.length) {
        var j = 3 * triIds(i)
        while (j < 3 * triIds(i) + 3) {
          val s = tris.slots(j)
          if (edgeOf(s) == 0) { edgeOf(s) = 1; buf(n) = s; n += 1 }
          j += 1
        }
        i += 1
      }
      i = 0
      while (i < n) { edgeOf(buf(i)) = 0; i += 1 }
      java.util.Arrays.sort(buf, 0, n)
      java.util.Arrays.copyOf(buf, n)
    }

    /** The structure of the edges at the upper CSR slots `slots`, ascending. */
    def apply(slots: Array[Int]): WorldStructure = {
      val thresholds = new Array[Long](slots.length)
      var e = 0
      while (e < slots.length) { thresholds(e) = Sampler.threshold(g.adjProb(slots(e))); edgeOf(slots(e)) = e + 1; e += 1 }
      var nt = 0
      e = 0
      while (e < slots.length) {
        var t = index.blockStart(slots(e)); val end = index.blockEnd(slots(e))
        while (t < end) {
          if (edgeOf(tris.slots(3 * t + 1)) != 0 && edgeOf(tris.slots(3 * t + 2)) != 0) {
            if (nt == found.length) found = java.util.Arrays.copyOf(found, 2 * nt)
            found(nt) = t; nt += 1; triOf(t) = nt
          }
          t += 1
        }
        e += 1
      }
      val triIds   = java.util.Arrays.copyOf(found, nt)
      val triEdges = new Array[Int](3 * nt)
      var i = 0
      while (i < triEdges.length) { triEdges(i) = edgeOf(tris.slots(3 * triIds(i / 3) + i % 3)) - 1; i += 1 }
      val deg        = new Array[Int](nt)
      val cliqueTris = new Array[Int](4 * cliques(triIds, null, deg))
      cliques(triIds, cliqueTris, deg)
      val triCliques = new Array[Array[Int]](nt)
      i = 0
      while (i < nt) { triCliques(i) = new Array[Int](deg(i)); deg(i) = 0; i += 1 }
      i = 0
      while (i < cliqueTris.length) {
        val t = cliqueTris(i)
        triCliques(t)(deg(t)) = i / 4; deg(t) += 1; i += 1
      }
      e = 0
      while (e < slots.length) { edgeOf(slots(e)) = 0; e += 1 }
      i = 0
      while (i < nt) { triOf(triIds(i)) = 0; i += 1 }
      new WorldStructure(thresholds, triEdges, cliqueTris, triCliques, triIds)
    }

    /** Counts the cliques of `cs` whose 4 triangles are marked in `triOf`,
      * each from its least member `triIds(i)` (`cs` lists it first); when
      * `out` is given, also writes their members' ids in the set into it
      * and counts each member's cliques in `deg`.
      */
    private def cliques(triIds: Array[Int], out: Array[Int], deg: Array[Int]): Int = {
      var nc = 0
      var i = 0
      while (i < triIds.length) {
        val t  = triIds(i)
        val cl = cs.triCliques(t)
        var j = 0
        while (j < cl.length) {
          val at = 4 * cl(j)
          if (ct(at) == t && triOf(ct(at + 1)) != 0 && triOf(ct(at + 2)) != 0 && triOf(ct(at + 3)) != 0) {
            if (out != null) {
              var r = 0
              while (r < 4) { val m = triOf(ct(at + r)) - 1; out(4 * nc + r) = m; deg(m) += 1; r += 1 }
            }
            nc += 1
          }
          j += 1
        }
        i += 1
      }
      nc
    }
  }

  /** The longest row of `rows`, 0 if none. */
  private def maxLength(rows: Array[Array[Int]]): Int = {
    var max = 0
    var i = 0
    while (i < rows.length) { max = math.max(max, rows(i).length); i += 1 }
    max
  }
}
