package repro.core

/** Disjoint sets over 0 until n: `find` with path compression, `union`
  * links the root of `a` under the root of `b`. Shared by the ℓ-nuclei
  * sweep, w's grouping of qualifying triangles and the truss/core
  * components.
  */
final class UnionFind(n: Int) {
  private val parent = Array.range(0, n)

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
    * order, the sets ordered by their least element. One pass numbers the
    * roots in order of first appearance and counts each set, a second fills
    * exact-size arrays.
    */
  def components(p: Int => Boolean): Seq[Array[Int]] = {
    val setOf = new Array[Int](n) // root → 1 + its set's number, 0 if not seen yet
    val size  = new Array[Int](n)
    var sets = 0
    var x = 0
    while (x < n) {
      if (p(x)) {
        val r = find(x)
        if (setOf(r) == 0) { sets += 1; setOf(r) = sets }
        size(setOf(r) - 1) += 1
      }
      x += 1
    }
    val out = new Array[Array[Int]](sets)
    var i = 0
    while (i < sets) { out(i) = new Array[Int](size(i)); size(i) = 0; i += 1 }
    x = 0
    while (x < n) {
      if (p(x)) { val s = setOf(find(x)) - 1; out(s)(size(s)) = x; size(s) += 1 }
      x += 1
    }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
  }
}
