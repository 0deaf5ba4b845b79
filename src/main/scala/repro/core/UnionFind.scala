package repro.core

import scala.collection.mutable

/** Disjoint sets over 0 until n: `find` with path compression, `union`
  * links the root of `a` under the root of `b`. Shared by the nuclei, the
  * g/w k-nucleus check and the truss/core components.
  */
final class UnionFind(n: Int) {
  private val parent = Array.tabulate(n)(identity)

  def find(x: Int): Int = {
    var r = x
    while (parent(r) != r) r = parent(r)
    var c = x
    while (parent(c) != r) { val next = parent(c); parent(c) = r; c = next }
    r
  }

  def union(a: Int, b: Int): Unit = {
    val ra = find(a); val rb = find(b)
    if (ra != rb) parent(ra) = rb
  }

  /** The sets restricted to the elements satisfying `p`: each in increasing
    * order, the sets ordered by their least element.
    */
  def components(p: Int => Boolean): Seq[Array[Int]] = {
    val comps = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Int]]
    (0 until n).foreach(x => if (p(x)) comps.getOrElseUpdate(find(x), mutable.ArrayBuffer.empty) += x)
    comps.values.map(_.toArray).toSeq
  }
}
