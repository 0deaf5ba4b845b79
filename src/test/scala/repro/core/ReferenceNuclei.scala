package repro.core

import repro.cliques.FourCliques.CliqueStructure
import repro.cliques.Incidence._
import repro.core.LocalNucleus.{Decomposition, Nucleus}
import repro.graph.ProbGraph
import scala.collection.mutable

/** The per-level nucleus build the one-sweep hierarchy replaced, kept as the
  * reference it is compared against: each level recomputes its k-alive
  * cliques and a full union-find over every clique incidence, groups the
  * components in a `LinkedHashMap` of `ArrayBuffer`s, and spans each nucleus
  * with a boxed `SortedSet` of vertices and `LinkedHashSet` of edges. It is
  * otherwise unchanged.
  */
object ReferenceNuclei {

  /** The ℓ-(k,θ)-nuclei of `d` at level k. */
  def nucleiAt(d: Decomposition, k: Int): Seq[Nucleus] = {
    val cs = d.structure
    val nT = cs.nTriangles
    val kAlive  = cs.cliquesWhere(d.nu(_) >= k)
    val uf      = new UnionFind(nT)
    // only triangles covered by a k-alive clique (cliqueness precondition)
    val covered = new Array[Boolean](nT)
    var i = 0
    while (i < cs.cliqueTris.length) {
      if (kAlive(i / 4)) { uf.union(cs.cliqueTris(i - i % 4), cs.cliqueTris(i)); covered(cs.cliqueTris(i)) = true }
      i += 1
    }
    components(uf, nT, covered(_)).map { triIds =>
      val (vs, es) = span(d.graph, cs, triIds)
      Nucleus(k, triIds, vs, es)
    }
  }

  /** `UnionFind.components` as it was: sets keyed by root in a
    * `LinkedHashMap` in order of first appearance.
    */
  def components(uf: UnionFind, n: Int, p: Int => Boolean): Seq[Array[Int]] = {
    val comps = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Int]]
    (0 until n).foreach(x => if (p(x)) comps.getOrElseUpdate(uf.find(x), mutable.ArrayBuffer.empty) += x)
    comps.values.map(_.toArray).toSeq
  }

  /** The vertices (ascending) and edges (first seen first, with their
    * probabilities) of a set of triangles of `g`.
    */
  def span(g: ProbGraph, cs: CliqueStructure, triIds: Array[Int]): (Array[Int], Array[(Int, Int, Double)]) = {
    val vs = mutable.SortedSet.empty[Int]
    val es = mutable.LinkedHashSet.empty[(Int, Int)]
    triIds.foreach { tid =>
      val (u, v, w) = (cs.tris.u(tid), cs.tris.v(tid), cs.tris.w(tid))
      vs += u; vs += v; vs += w
      es += ((u, v)); es += ((u, w)); es += ((v, w))
    }
    (vs.toArray, es.toArray.map { case (u, v) => (u, v, g.prob(u, v)) })
  }
}
