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
    */
  final class WorldStructure(val graph: ProbGraph) {
    val edges: Array[(Int, Int, Double)] = graph.edges
    val cs: FourCliques.CliqueStructure  = FourCliques.build(graph)
    /** Flat, 3 edge ids per triangle. */
    val triEdges: Array[Int] = Triangles.edgeIds(graph, cs.tris)

    /** The triangles of the world `mask`. */
    def aliveTriangles(mask: Array[Boolean]): Array[Boolean] = {
      val out = new Array[Boolean](cs.nTriangles)
      var t = 0
      while (t < cs.nTriangles) { out(t) = mask(triEdges(3 * t)) && mask(triEdges(3 * t + 1)) && mask(triEdges(3 * t + 2)); t += 1 }
      out
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
    isKNucleus(ws, Array.fill(ws.edges.length)(true), k)
  }

  /** Is the world `mask` of `ws` a deterministic k-nucleus? Definition 3:
    * it has an edge and a 4-clique, (1) every present edge lies in a
    * 4-clique (it is a union of 4-cliques), (2) every triangle has 4-clique
    * support ≥ k, and (3) the triangles of its 4-cliques are s-connected
    * (share-a-4-clique connectivity).
    */
  def isKNucleus(ws: WorldStructure, mask: Array[Boolean], k: Int): Boolean = {
    val cs     = ws.cs
    val alive  = ws.aliveTriangles(mask)
    val clique = cs.cliquesWhere(alive(_))
    val support = new Array[Int](cs.nTriangles)
    val covered = new Array[Boolean](mask.length)
    val uf      = new UnionFind(cs.nTriangles)
    var i = 0
    while (i < cs.cliqueTris.length) {
      if (clique(i / 4)) {
        val t = cs.cliqueTris(i)
        support(t) += 1
        covered(ws.triEdges(3 * t)) = true; covered(ws.triEdges(3 * t + 1)) = true; covered(ws.triEdges(3 * t + 2)) = true
        uf.union(t, cs.cliqueTris(i - i % 4))
      }
      i += 1
    }
    val inClique = (0 until cs.nTriangles).filter(support(_) > 0)
    inClique.nonEmpty && mask.indices.forall(e => !mask(e) || covered(e)) &&
      alive.indices.forall(t => !alive(t) || support(t) >= k) &&
      inClique.forall(uf.find(_) == uf.find(inClique.head))
  }

  /** The triangles of the world `mask` with ν_det ≥ k: level-k pruning
    * repeatedly drops a triangle with fewer than k alive 4-cliques and kills
    * its cliques; what is left is the world's k-nucleus triangles.
    */
  def levelSet(ws: WorldStructure, mask: Array[Boolean], k: Int): Array[Boolean] = {
    val cs      = ws.cs
    val alive   = ws.aliveTriangles(mask)
    val clique  = cs.cliquesWhere(alive(_))
    val support = new Array[Int](cs.nTriangles)
    var i = 0
    while (i < cs.cliqueTris.length) { if (clique(i / 4)) support(cs.cliqueTris(i)) += 1; i += 1 }
    // each triangle is pushed once: initially below k, or on falling to k − 1
    val stack = new Array[Int](cs.nTriangles)
    var top = 0
    var t = 0
    while (t < cs.nTriangles) { if (alive(t) && support(t) < k) { stack(top) = t; top += 1 }; t += 1 }
    while (top > 0) {
      top -= 1
      val dead = stack(top)
      alive(dead) = false
      cs.triCliques(dead).foreach { c =>
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
      }
    }
    alive
  }
}
