package nucbench

import java.lang.management.ManagementFactory
import repro.core.ProbPeeling
import repro.prob.Approximations
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** JVM counters read at span boundaries. The benchmark is single-threaded,
  * so the current thread's allocated bytes are the work's allocation.
  */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes
  def gcMillis(): Long       = collectors.map(_.getCollectionTime).sum
  def gcCount(): Long        = collectors.map(_.getCollectionCount).sum

  /** Used heap in MB after full collections, i.e. what the live objects hold. */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }
}

/** What one span cost: wall seconds, and when traced, the allocation and the
  * GC activity inside it.
  */
final case class Cost(sec: Double, allocMb: Double, gcSec: Double, gcCount: Long)

/** One recorded span. `parent` is −1 at a pass's top level; spans of one pass
  * share `pass` (the trace identifier).
  */
final case class Span(id: Int, parent: Int, pass: Int, name: String,
                      startNs: Long, endNs: Long, allocBytes: Long, gcMs: Long)

/** A failed operation: an exception, or an output check that did not hold. */
final case class OpFailed(op: String, cause: Throwable) extends RuntimeException(s"$op: $cause", cause)

/** State of one benchmark run: operation counts, failures and, when traced,
  * the spans, kept in memory until the run writes its record.
  */
final class Run(val mutate: Option[String]) {
  var attempted = 0L
  /** failed operations (pass/op key) with the first reason seen */
  val failures = mutable.LinkedHashMap.empty[String, String]
  val spans    = mutable.ArrayBuffer.empty[Span]
  private var nextSpan = 0
  private var nextPass = 0

  private val mutated = mutable.Set.empty[String]
  /** True the first time an output of this kind is due for the run's mutation. */
  def mutateOnce(kind: String): Boolean = mutate.contains(kind) && mutated.add(kind)

  def fail(key: String, reason: String): Unit =
    if (!failures.contains(key)) failures(key) = reason

  def newPass(kind: String, traced: Boolean): Pass = {
    val p = new Pass(nextPass, kind, traced, this)
    nextPass += 1
    p
  }

  private[nucbench] def spanId(): Int = { nextSpan += 1; nextSpan - 1 }
}

/** An output of one operation: a digest that must repeat across passes and
  * checks that run once, on the first pass that produces it.
  */
final case class Output(op: String, digest: () => String, checks: () => Seq[String])

/** Bookkeeping for one pass over a workload.
  *
  * `op` times one public call of the program (an operation); `span` times a
  * call into one layer inside it;
  * `probe` runs traced-only measurements whose time is kept out of the
  * pass's wall time.
  */
final class Pass(val id: Int, val kind: String, val traced: Boolean, run: Run) {
  /** per-layer values (traced passes only) */
  val layers  = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  val outputs = mutable.ArrayBuffer.empty[Output]
  private var open: List[Int] = Nil
  private var probeNs = 0L
  private var probeAlloc = 0.0
  private var probeGc = 0.0
  private var probeGcCount = 0L

  def add(name: String, v: Double): Unit = layers(name) += v
  def max(name: String, v: Double): Unit = layers(name) = math.max(layers(name), v)

  /** Is the run's mutation self-test of this kind due here? Once per run. */
  def mutating(kind: String): Boolean = run.mutateOnce(kind)

  def span[A](name: String)(body: => A): (A, Cost) = {
    if (!traced) {
      val t0 = System.nanoTime()
      val r  = body
      return (r, Cost((System.nanoTime() - t0) / 1e9, 0.0, 0.0, 0L))
    }
    val sid = run.spanId()
    val parent = open.headOption.getOrElse(-1)
    open = sid :: open
    val (a0, g0, c0) = (Jvm.allocatedBytes(), Jvm.gcMillis(), Jvm.gcCount())
    val t0 = System.nanoTime()
    try {
      val r  = body
      val t1 = System.nanoTime()
      val (a1, g1, c1) = (Jvm.allocatedBytes(), Jvm.gcMillis(), Jvm.gcCount())
      run.spans += Span(sid, parent, id, name, t0, t1, a1 - a0, g1 - g0)
      (r, Cost((t1 - t0) / 1e9, (a1 - a0) / 1e6, (g1 - g0) / 1e3, c1 - c0))
    } finally open = open.tail
  }

  /** Time one operation; when traced, its time adds to the per-layer metric
    * `layer` (if named). An exception fails the operation and ends the run.
    */
  def op[A](key: String, layer: String = "")(body: => A): A = {
    run.attempted += 1
    val (r, c) =
      try span(key)(body)
      catch { case e: Throwable => run.fail(s"$id/$key", e.toString); throw OpFailed(key, e) }
    if (traced && layer.nonEmpty) add(layer, c.sec)
    r
  }

  def output(op: String)(digest: => String)(checks: => Seq[String]): Unit =
    outputs += Output(op, () => digest, () => checks)

  /** Run a traced-only measurement, excluded from the pass's wall time. */
  def probe(name: String)(body: => Unit): Unit = if (traced) {
    val (_, c) = span(name)(body)
    probeNs += (c.sec * 1e9).toLong
    probeAlloc += c.allocMb; probeGc += c.gcSec; probeGcCount += c.gcCount
  }

  /** Time the whole pass: its wall seconds and allocated MB, both without
    * probes. Traced passes also record the pass's GC time and count.
    */
  def timeAll(body: => Unit): (Double, Double) = {
    val a0 = Jvm.allocatedBytes()
    val (_, c) = span(s"pass.$kind")(body)
    val allocMb = (Jvm.allocatedBytes() - a0) / 1e6 - probeAlloc
    if (traced) {
      add("jvm.alloc_mb", allocMb)
      add("jvm.gc_s", c.gcSec - probeGc)
      add("jvm.gc_count", (c.gcCount - probeGcCount).toDouble)
    }
    (c.sec - probeNs / 1e9, allocMb)
  }

  private[nucbench] def fail(op: String, reason: String): Unit = run.fail(s"$id/$op", reason)
}

/** κ-scorer wrapper for the traced peel: counts calls and Σ c_Δ, times the
  * scorer, and for AP records which §5.3 method `Approximations.select`
  * picks. The selector's own time is kept apart so it can be taken out of
  * the peel's self time.
  */
final class CountingScorer(base: ProbPeeling.Scorer, histogram: Boolean)
    extends ((Double, Array[Double], Double) => Int) {
  var calls = 0L
  var work  = 0L
  var scorerNs = 0L
  var selectNs = 0L
  val methods  = mutable.LinkedHashMap[Approximations.Method, Long](
    Approximations.Poisson -> 0L, Approximations.TranslatedPoisson -> 0L,
    Approximations.Binomial -> 0L, Approximations.CLT -> 0L, Approximations.ExactDP -> 0L)

  def apply(p: Double, probs: Array[Double], theta: Double): Int = {
    val t0 = System.nanoTime()
    val k  = base(p, probs, theta)
    val t1 = System.nanoTime()
    calls += 1; work += probs.length; scorerNs += t1 - t0
    // kappaAuto returns before selecting when the item is below θ or has no group
    if (histogram && p >= theta && probs.length > 0) {
      val m = Approximations.select(probs)
      methods(m) += 1
      selectNs += System.nanoTime() - t1
    }
    k
  }
}
