package nucbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Benchmark entry point: one workload, one seed, one JVM, one thread.
  *
  * A run generates the workload's graphs several times (set-up), runs
  * untimed warm-up passes, the first of which also runs every output check,
  * then repeats timed passes for `--seconds`. With `--trace 1` it alternates untraced and
  * traced passes and reports per-layer values instead of end-to-end ones.
  * Every value reported is a median over the run's set-ups or passes. The last line on
  * stdout is the result object; a human-readable summary goes to stderr.
  */
object Main {

  /** Set-up repeats at least this often, and until it has taken `SetupSeconds`. */
  val SetupRounds  = 3
  val SetupSeconds = 2.0
  val SetupMaxRounds = 100
  /** Untimed warm-up passes run until they have taken this long (JIT). */
  val WarmupSeconds = 3.0

  /** End-to-end metrics (`--trace 0`), with units. */
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "pass_s" -> "s", "pass_alloc_mb" -> "MB", "heap_retained_mb" -> "MB")

  /** Per-layer metrics (`--trace 1`), with units. */
  val perLayer: Seq[(String, String)] = {
    val peel = for (m <- Seq("dp", "ap"); (n, u) <- Seq(
      "core.local_s" -> "s", "core.peel_s" -> "s", "core.peel_self_s" -> "s", "core.peel_alloc_mb" -> "MB", "core.kmax" -> "count",
      "prob.scorer_calls" -> "count", "prob.rescore_calls" -> "count", "prob.scorer_work" -> "count",
      "prob.scorer_s" -> "s")) yield s"$n.$m" -> u
    Seq("graph.generate_s" -> "s", "graph.vertices" -> "count", "graph.edges" -> "count",
        "cliques.triangles_s" -> "s", "cliques.fourcliques_s" -> "s", "cliques.triangles" -> "count",
        "cliques.fourcliques" -> "count", "cliques.support_max" -> "count", "cliques.alloc_mb" -> "MB",
        "core.kernel_input_s" -> "s") ++ peel ++
      Seq("poisson", "translated_poisson", "binomial", "clt", "exact_dp").map(m => s"prob.ap_method.$m" -> "count") ++
      Seq("prob.ap_dp_fallback_ratio" -> "frac", "prob.ap_error_avg" -> "count", "prob.ap_error_share" -> "frac",
        "core.nuclei_s" -> "s", "core.nuclei" -> "count",
        "core.global_s" -> "s", "core.weakly_s" -> "s", "core.w_candidates" -> "count",
        "core.w_worlds" -> "count", "core.g_nuclei" -> "count", "core.w_nuclei" -> "count",
        "prob.world_sample_us" -> "us", "core.det_decompose_us" -> "us", "core.is_k_nucleus_us" -> "us",
        "baseline.truss_s" -> "s", "baseline.core_s" -> "s", "baseline.truss_kmax" -> "count",
        "baseline.core_kmax" -> "count", "core.metrics_s" -> "s",
        "jvm.gc_s" -> "s", "jvm.gc_count" -> "count", "jvm.alloc_mb" -> "MB",
        "trace.overhead_frac" -> "frac")
  }

  final case class Args(workload: String = "", seed: Long = 0, seconds: Double = 10, trace: Boolean = false,
                        scale: Double = 1.0, mutate: Option[String] = None, expected: String = "",
                        record: String = "", revision: String = "")

  def parse(argv: List[String], a: Args = Args()): Args = argv match {
    case Nil => a
    case "--workload" :: v :: rest => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, a.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest    => parse(rest, a.copy(trace = v == "1"))
    case "--scale" :: v :: rest    => parse(rest, a.copy(scale = v.toDouble))
    case "--mutate" :: v :: rest   => parse(rest, a.copy(mutate = Some(v)))
    case "--expected" :: v :: rest => parse(rest, a.copy(expected = v))
    case "--record" :: v :: rest   => parse(rest, a.copy(record = v))
    case "--revision" :: v :: rest => parse(rest, a.copy(revision = v))
    case other :: _ => throw new IllegalArgumentException(s"unknown argument $other")
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  /** Digests recorded for seed 0 at scale 1: lines of `workload op digest`. */
  def loadExpected(path: String, workload: String): Map[String, String] =
    if (path.isEmpty || !Files.exists(Paths.get(path))) Map.empty
    else Files.readAllLines(Paths.get(path)).asScala.map(_.trim)
      .filter(l => l.nonEmpty && !l.startsWith("#")).map(_.split("\\s+"))
      .collect { case Array(w, op, d) if w == workload => op -> d }.toMap

  def main(argv: Array[String]): Unit = {
    val a   = parse(argv.toList)
    val wl  = Workloads(a.workload)
    val run = new Run(a.mutate)
    val expected = if (a.seed == 0 && a.scale == 1.0) loadExpected(a.expected, wl.name) else Map.empty[String, String]
    val digests  = mutable.LinkedHashMap.empty[String, String]

    /** Check a finished pass's outputs: the first time an output appears its
      * checks run and its digest must match the recorded one; after that its
      * digest must repeat.
      */
    def finish(p: Pass): Unit = p.outputs.foreach { o =>
      val d = try o.digest() catch { case e: Throwable => s"error: $e" }
      digests.get(o.op) match {
        case None =>
          digests(o.op) = d
          expected.get(o.op).foreach(e => if (e != d) p.fail(o.op, s"digest $d, recorded $e"))
          val bad = try o.checks() catch { case e: Throwable => Seq(s"check threw $e") }
          bad.foreach(p.fail(o.op, _))
        case Some(first) =>
          if (first != d) p.fail(o.op, s"digest $d differs from the first pass's $first")
      }
    }

    val setupSec    = mutable.ArrayBuffer.empty[Double]
    val setupLayers = mutable.ArrayBuffer.empty[Map[String, Double]]
    val passSec     = mutable.ArrayBuffer.empty[Double]
    val passAlloc   = mutable.ArrayBuffer.empty[Double]
    val tracedSec   = mutable.ArrayBuffer.empty[Double]
    val tracedVals  = mutable.ArrayBuffer.empty[Map[String, Double]]
    var heapMb      = Double.NaN
    try {
      var graphs: Seq[(String, repro.graph.ProbGraph)] = Nil
      while (setupSec.size < SetupRounds ||
             (setupSec.sum < SetupSeconds && setupSec.size < SetupMaxRounds)) {
        graphs = Nil
        val p = run.newPass("setup", a.trace)
        val (sec, _) = p.timeAll { graphs = wl.datasets.map(ds => ds -> Workloads.setup(ds, a.scale, a.seed, p)) }
        finish(p)
        setupSec += sec
        setupLayers += p.layers.toMap
      }
      var warmSec = 0.0
      while (warmSec == 0.0 || warmSec < WarmupSeconds) {
        val warm = run.newPass("warmup", traced = false)
        warmSec += warm.timeAll(wl.pass(graphs, warm, a.seed))._1
        finish(warm)
        warm.outputs.clear()
      }

      val t0 = System.nanoTime()
      var last: Pass = null
      var i = 0
      while (i < (if (a.trace) 2 else 1) || (System.nanoTime() - t0) / 1e9 < a.seconds) {
        val traced = a.trace && i % 2 == 1
        val p   = run.newPass(if (traced) "traced" else "timed", traced)
        val (sec, allocMb) = p.timeAll(wl.pass(graphs, p, a.seed))
        finish(p)
        if (traced) { tracedSec += sec; tracedVals += p.layers.toMap }
        else { passSec += sec; passAlloc += allocMb }
        if (last != null) last.outputs.clear()
        last = p
        i += 1
      }
      // the last pass's outputs and the graphs are still held here
      if (!a.trace) heapMb = Jvm.retainedHeapMb()
      java.lang.ref.Reference.reachabilityFence(last)
      java.lang.ref.Reference.reachabilityFence(graphs)
    } catch { case _: OpFailed => () }

    def layerMedian(key: String): Double = median(tracedVals.map(_.getOrElse(key, 0.0)).toSeq)
    val values: Seq[(String, String, Double)] =
      if (!a.trace) endToEnd.map { case (n, u) =>
        (n, u, n match {
          case "setup_s"          => median(setupSec.toSeq)
          case "pass_s"           => median(passSec.toSeq)
          case "pass_alloc_mb"    => median(passAlloc.toSeq)
          case "heap_retained_mb" => heapMb
        })
      }
      else perLayer.map { case (n, u) =>
        (n, u, n match {
          case _ if n.startsWith("graph.") => median(setupLayers.map(_.getOrElse(n, 0.0)).toSeq)
          case "trace.overhead_frac"       => median(tracedSec.toSeq) / median(passSec.toSeq) - 1
          case "prob.ap_dp_fallback_ratio" =>
            val all = Seq("poisson", "translated_poisson", "binomial", "clt", "exact_dp")
              .map(m => layerMedian(s"prob.ap_method.$m")).sum
            if (all == 0) 0.0 else layerMedian("prob.ap_method.exact_dp") / all
          case _ => layerMedian(n)
        })
      }
    values.filterNot(_._3.isFinite).foreach(v => run.fail("run", s"${v._1} was not measured"))
    val correct = run.failures.isEmpty && run.attempted > 0

    val out = new StringBuilder
    out ++= s"""{"correct": $correct, "attempted": ${run.attempted}, "failed": ${run.failures.size}, "metrics": {"""
    out ++= values.map { case (n, u, v) =>
      s""""$n": {"value": ${if (v.isFinite) v.toString else "0.0"}, "unit": "$u"}"""
    }.mkString(", ")
    out ++= "}}"

    if (a.record.nonEmpty) writeRecord(a, wl, run, digests, setupSec.toSeq, passSec.toSeq, passAlloc.toSeq,
                                       tracedSec.toSeq, tracedVals.toSeq, values)
    System.err.println(f"${wl.name} seed=${a.seed} trace=${if (a.trace) 1 else 0} " +
      s"passes=${passSec.size}+${tracedSec.size} traced, ops=${run.attempted} failed=${run.failures.size}")
    values.foreach { case (n, u, v) => System.err.println(f"  $n%-34s $v%14.6f $u") }
    run.failures.take(10).foreach { case (k, why) => System.err.println(s"  FAILED $k: $why") }
    println(out.result())
  }

  private def q(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""

  private def num(v: Double): String = if (v.isFinite) v.toString else "null"

  private def obj(m: Iterable[(String, String)]): String = m.map { case (k, v) => s"${q(k)}: $v" }.mkString("{", ", ", "}")

  /** The run's record: environment, per-pass values, digests, failures and
    * every span, written once when the run ends.
    */
  private def writeRecord(a: Args, wl: Workload, run: Run, digests: collection.Map[String, String],
                          setupSec: Seq[Double], passSec: Seq[Double], passAlloc: Seq[Double],
                          tracedSec: Seq[Double], tracedVals: Seq[Map[String, Double]],
                          values: Seq[(String, String, Double)]): Unit = {
    val rt  = Runtime.getRuntime
    val env = Seq(
      "workload" -> q(wl.name), "seed" -> a.seed.toString, "seconds" -> num(a.seconds),
      "trace" -> a.trace.toString, "scale" -> num(a.scale), "revision" -> q(a.revision),
      "nproc" -> rt.availableProcessors.toString, "jdk" -> q(System.getProperty("java.version")),
      "vm" -> q(System.getProperty("java.vm.name")), "max_heap_mb" -> num(rt.maxMemory / 1e6),
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.map(q).mkString("[", ", ", "]"),
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => q(b.getName)).mkString("[", ", ", "]"))
    def series(xs: Seq[Double]) = xs.map(num).mkString("[", ", ", "]")
    def maps(ms: Seq[Map[String, Double]]) = ms.map(m => obj(m.map { case (k, v) => k -> num(v) })).mkString("[", ", ", "]")
    val spans = run.spans.map { s =>
      obj(Seq("id" -> s.id.toString, "parent" -> s.parent.toString, "pass" -> s.pass.toString,
              "name" -> q(s.name), "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString,
              "alloc_bytes" -> s.allocBytes.toString, "gc_ms" -> s.gcMs.toString))
    }
    val json = obj(Seq(
      "env" -> obj(env),
      "metrics" -> obj(values.map { case (n, u, v) => n -> obj(Seq("value" -> num(v), "unit" -> q(u))) }),
      "attempted" -> run.attempted.toString,
      "failures" -> obj(run.failures.map { case (k, v) => k -> q(v) }),
      "digests" -> obj(digests.map { case (k, v) => k -> q(v) }),
      "setup_s" -> series(setupSec), "pass_s" -> series(passSec), "pass_alloc_mb" -> series(passAlloc),
      "traced_pass_s" -> series(tracedSec), "traced_layers" -> maps(tracedVals),
      "spans" -> spans.mkString("[\n", ",\n", "]")))
    val path = Paths.get(a.record)
    Option(path.getParent).foreach(Files.createDirectories(_))
    Files.write(path, json.getBytes(StandardCharsets.UTF_8))
  }
}
