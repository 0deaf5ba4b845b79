package repro.prob

import scala.language.implicitConversions

/** κ-scorer of the peeling kernel: (itemExistProb, alive group
  * probabilities, θ) → κ ∈ [-1, c]. The probabilities are an exact-length
  * array in group order, valid only during the call (`peel` refills it), so
  * a scorer must not keep it. No call boxes its primitive arguments.
  */
trait Scorer { def apply(existProb: Double, probs: Array[Double], theta: Double): Int }

object Scorer {
  /** A `Function3` (the benchmark's counting wrapper) as a scorer, boxing two `Double`s
    * per call unless the JIT removes them. Remove it with ROADMAP item 1's benchmark change. */
  implicit def fromFunction3(f: (Double, Array[Double], Double) => Int): Scorer = f(_, _, _)
}
