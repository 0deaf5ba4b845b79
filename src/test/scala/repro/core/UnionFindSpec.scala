package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** `UnionFind.components` against the boxed `LinkedHashMap` grouping it
  * replaced (`ReferenceNuclei.components`): the same sets in the same order.
  */
class UnionFindSpec extends AnyFunSuite {

  test("components equals the boxed reference on random unions and predicates") {
    val rnd = new Random(31)
    for (trial <- 1 to 300) {
      val n = rnd.nextInt(200)
      val (a, b) = (new UnionFind(n), new UnionFind(n))
      if (n > 0) for (_ <- 1 to rnd.nextInt(2 * n)) {
        val (x, y) = (rnd.nextInt(n), rnd.nextInt(n))
        a.union(x, y); b.union(x, y)
      }
      val keep = Array.fill(n)(rnd.nextInt(4) != 0)
      val got  = a.components(keep(_))
      val want = ReferenceNuclei.components(b, n, keep(_))
      assert(got.map(_.toSeq) == want.map(_.toSeq), s"trial $trial n=$n")
    }
  }
}
