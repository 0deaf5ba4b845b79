package repro.cliques

/** Reads of a [[FourCliques.CliqueStructure]] that only tests make: one
  * member's Pr(E_i) inside a clique, a triangle's 4-clique support, and the
  * cliques whose members all satisfy a predicate.
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

    /** The cliques whose four member triangles all satisfy `p`. */
    def cliquesWhere(p: Int => Boolean): Array[Boolean] = {
      val out = new Array[Boolean](cs.nCliques)
      var c = 0
      while (c < cs.nCliques) {
        out(c) = p(cs.cliqueTris(4 * c)) && p(cs.cliqueTris(4 * c + 1)) && p(cs.cliqueTris(4 * c + 2)) && p(cs.cliqueTris(4 * c + 3))
        c += 1
      }
      out
    }
  }
}
