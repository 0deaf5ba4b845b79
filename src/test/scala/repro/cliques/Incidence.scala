package repro.cliques

/** Reads of a [[FourCliques.CliqueStructure]] that only tests make: one
  * member's Pr(E_i) inside a clique, and a triangle's 4-clique support.
  */
object Incidence {

  implicit final class Reads(private val cs: FourCliques.CliqueStructure) extends AnyVal {

    /** Pr(E_i) of triangle `tid` inside clique `c` (must be a member). */
    def prE(c: Int, tid: Int): Double = {
      var i = 4 * c
      while (i < 4 * c + 4) { if (cs.cliqueTris(i) == tid) return cs.cliquePrE(i); i += 1 }
      throw new NoSuchElementException(s"triangle $tid not in clique $c")
    }

    /** 4-clique support: the number of 4-cliques containing triangle `tid`. */
    def support(tid: Int): Int = cs.triCliques(tid).length
  }
}
