package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{MoRER, MoRERResult}
import repro.eval.{Experiments, Timing}

/** The MoRER benchmark: one workload, one seed, one process.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir> [--commit <id>]
  * }}}
  *
  * Set-up starts a SparkSession and generates and caches the corpus,
  * `SetupReps` times over, then warms `MoRER.run` up. With `--trace 0`
  * it repeats the untraced `MoRER.run` for `--seconds` and reports the
  * end-to-end metrics; with `--trace 1` it runs `MoRER.run` once untraced
  * and once traced (see `TracedRun`) and reports the per-layer metrics.
  * Every run's output is checked. The last stdout line is the result
  * JSON; a record with the environment, samples, span tree and sel_cov
  * decision log goes to `--out`.
  */
object Main {
  val SetupReps = 3
  val WarmupRuns = 1
  /** Timed repetitions per run, at the least: the median then always
    * sits at the same point of the JIT warm-up curve.
    */
  val MinReps = 3
  /** Seed held out from tuning, for confirming claims. */
  val HeldOutSeed = 101L

  /** Expected outputs every run is checked against. */
  final case class Reference(f1: Double, labels: Int, clusters: Int)

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        out: String, commit: String)

  private def parse(args: Array[String]): Either[String, Args] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.length % 2 != 0 || kv.size * 2 != args.length) return Left("arguments come in --key value pairs")
    for {
      wn <- kv.get("workload").toRight("missing --workload")
      w <- Workload.byName(wn).toRight(s"unknown workload $wn (known: ${Workload.all.map(_.name).mkString(", ")})")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight("--seed must be an integer")
      secs <- kv.get("seconds").flatMap(_.toIntOption).filter(_ > 0).toRight("--seconds must be a positive integer")
      trace <- kv.get("trace").collect { case "0" => false; case "1" => true }.toRight("--trace must be 0 or 1")
      out <- kv.get("out").toRight("missing --out")
    } yield Args(w, seed, secs, trace, out, kv.getOrElse("commit", "unknown"))
  }

  def main(argv: Array[String]): Unit = parse(argv) match {
    case Left(msg) =>
      Console.err.println(s"perfbench: $msg")
      sys.exit(2)
    case Right(a) =>
      val result = new Bench(a).run()
      println(Json.render(result))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Nearest-rank percentile; 0 for an empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      s(math.min(s.size - 1, math.max(0, math.ceil(p * s.size).toInt - 1)))
    }
}

/** One benchmark process. */
final class Bench(a: Main.Args) {
  import Main._

  private val w = a.workload
  private val cfg = w.config(a.seed)
  private val cores = math.min(4, Runtime.getRuntime.availableProcessors())
  private val master = s"local[$cores]"
  private val partitions = cores
  private val outDir = Paths.get(a.out)
  private var spark: SparkSession = _

  private var attempted = 0
  private val failures = mutable.ArrayBuffer.empty[String]

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] ${w.name} seed=${a.seed} $msg")

  private def newSession(): SparkSession = SparkSession.builder()
    .master(master).appName(s"perfbench-${w.name}")
    .config("spark.sql.shuffle.partitions", partitions.toString)
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.enabled", false)
    .config("spark.local.dir", outDir.resolve("spark-local").toString)
    .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toString)
    .getOrCreate()

  private def check(tag: String, r: MoRERResult, pairsU: Long, ref: Option[Reference]): Unit = {
    attempted += 1
    val errs = mutable.ArrayBuffer.empty[String]
    if (r.confusion.total != pairsU)
      errs += s"confusion.total ${r.confusion.total} != |P_U pairs| $pairsU"
    if (w.selection == "base" && r.labelsSpent > cfg.bTot)
      errs += s"labels ${r.labelsSpent} > b_tot ${cfg.bTot}"
    ref.foreach { e =>
      if (r.f1 != e.f1) errs += s"F1 ${r.f1} != ${e.f1} of the first run"
      if (r.labelsSpent != e.labels) errs += s"labels ${r.labelsSpent} != ${e.labels} of the first run"
      if (r.repo.numClusters != e.clusters) errs += s"clusters ${r.repo.numClusters} != ${e.clusters} of the first run"
    }
    if (errs.nonEmpty) {
      failures += s"$tag: ${errs.mkString("; ")}"
      log(s"CHECK FAILED $tag: ${errs.mkString("; ")}")
    }
  }

  def run(): Map[String, Any] = {
    // ---- set-up: SparkSession, corpus generation and caching, repeated
    val sessionS = mutable.ArrayBuffer.empty[Double]
    val loadS = mutable.ArrayBuffer.empty[Double]
    var bundle: Experiments.Bundle = null
    for (i <- 0 until SetupReps) {
      if (bundle != null) { Experiments.unload(bundle); spark.stop() }
      val (s, ts) = Timing.timed(newSession())
      spark = s
      spark.sparkContext.setLogLevel("WARN")
      val (b, tl) = Timing.timed(Experiments.load(spark, w.dataset, w.sf, ratioInit = 0.5, seed = a.seed))
      bundle = b
      sessionS += ts; loadS += tl
      log(f"setup $i: session ${ts}%.2fs, corpus ${tl}%.2fs")
    }
    val ds = bundle.ds
    val unsolved = w.unsolvedLimit.fold(bundle.unsolvedIds)(bundle.unsolvedIds.take)
    val counts = ds.pairs.groupBy("problemId").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val presentU = unsolved.filter(counts.contains)
    val pairsU = presentU.map(counts).sum
    val corpus = Map(
      "pairs" -> counts.values.sum, "problems" -> counts.size,
      "init_problems" -> bundle.initIds.count(counts.contains),
      "unsolved_problems" -> presentU.size, "unsolved_pairs" -> pairsU)

    // ---- warm-up: compiles the pipeline's queries and its hottest code
    val warm = mutable.ArrayBuffer.empty[Double]
    var ref: Option[Reference] = None
    while (warm.size < WarmupRuns) {
      val (r, t) = Timing.timed(MoRER.run(spark, ds, bundle.initIds, unsolved, cfg))
      check(s"warm-up ${warm.size}", r, pairsU, ref)
      if (ref.isEmpty) ref = Some(Reference(r.f1, r.labelsSpent, r.repo.numClusters))
      warm += t
      log(f"warm-up ${warm.size}: ${t}%.2fs f1=${r.f1}%.4f labels=${r.labelsSpent} clusters=${r.repo.numClusters}")
    }
    val setupS = median((sessionS zip loadS).map { case (x, y) => x + y }.toSeq) + warm.sum

    val env = Map(
      "workload" -> w.name, "seed" -> a.seed, "held_out_seed" -> HeldOutSeed,
      "morer_seed" -> cfg.seed, "seconds" -> a.seconds, "trace" -> a.trace,
      "dataset" -> w.dataset, "sf" -> w.sf, "al" -> w.al.name, "selection" -> w.selection,
      "b_tot" -> cfg.bTot, "t_cov" -> cfg.tCov, "unsolved_limit" -> w.unsolvedLimit,
      "cores" -> cores, "master" -> master, "shuffle_partitions" -> partitions,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "available_processors" -> Runtime.getRuntime.availableProcessors(),
      "spark" -> spark.version, "java" -> System.getProperty("java.version"),
      "git_commit" -> a.commit, "corpus" -> corpus)
    val setup = Map("session_s" -> sessionS, "corpus_s" -> loadS, "warmup_s" -> warm, "setup_s" -> setupS)

    val (metrics, record) =
      if (a.trace) traced(ds, bundle, unsolved, pairsU, ref.get, loadS.toSeq)
      else timed(ds, bundle, unsolved, pairsU, ref.get, setupS)

    val result = Map(
      "correct" -> failures.isEmpty, "attempted" -> attempted, "failed" -> failures.size,
      "metrics" -> metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) }.to(mutable.LinkedHashMap))
    Files.createDirectories(outDir)
    val file = outDir.resolve(s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
    val full = Map("env" -> env, "setup" -> setup, "failures" -> failures, "result" -> result) ++ record
    Files.write(file, Json.render(full).getBytes(StandardCharsets.UTF_8))
    log(s"record written to $file")
    Experiments.unload(bundle)
    spark.stop()
    result
  }

  type Metric = (String, Double, String)

  /** Repeats the untraced `MoRER.run` until `--seconds` have passed and
    * `MinReps` runs are done.
    */
  private def timed(ds: repro.erdata.ERDataset, b: Experiments.Bundle, unsolved: Seq[String],
                    pairsU: Long, ref: Reference, setupS: Double): (Seq[Metric], Map[String, Any]) = {
    val samples = mutable.ArrayBuffer.empty[Double]
    val deadline = System.nanoTime() + a.seconds * 1000000000L
    while (samples.size < MinReps || System.nanoTime() < deadline) {
      val (r, t) = Timing.timed(MoRER.run(spark, ds, b.initIds, unsolved, cfg))
      check(s"rep ${samples.size}", r, pairsU, Some(ref))
      samples += t
      log(f"rep ${samples.size}: ${t}%.3fs f1=${r.f1}%.4f labels=${r.labelsSpent}")
    }
    val n = samples.size
    // The highest percentile with at least ten samples beyond it.
    val tail = Seq(0.99, 0.9, 0.5).find(p => n * (1 - p) >= 10)
    log(f"run_s median ${median(samples.toSeq)}%.3fs over n=$n" +
      tail.fold(f", max ${samples.max}%.3fs (too few samples for a tail percentile)")(p =>
        f", p${(p * 100).toInt} ${percentile(samples.toSeq, p)}%.3fs"))
    val metrics = Seq[Metric](
      ("run_s", median(samples.toSeq), "s"),
      ("f1", ref.f1, "1"),
      ("setup_s", setupS, "s"))
    (metrics, Map("run_s_samples" -> samples, "run_s_n" -> n,
      "run_s_tail" -> tail.map(p => Map("p" -> p, "value" -> percentile(samples.toSeq, p))),
      "run_s_max" -> samples.max))
  }

  /** One untraced and one traced `MoRER.run`; the per-layer metrics. */
  private def traced(ds: repro.erdata.ERDataset, b: Experiments.Bundle, unsolved: Seq[String],
                     pairsU: Long, ref: Reference, loadS: Seq[Double]): (Seq[Metric], Map[String, Any]) = {
    val (plain, untracedS) = Timing.timed(MoRER.run(spark, ds, b.initIds, unsolved, cfg))
    check("untraced", plain, pairsU, Some(ref))

    // erdata sizes (not part of any timed run)
    val records = ds.records.count()
    val matches = ds.pairs.filter(col("label") === 1).count()

    val tracer = new Tracer(spark.sparkContext)
    val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq.filter(_.getType == MemoryType.HEAP)
    System.gc()
    heapPools.foreach(_.resetPeakUsage())
    val gc0 = gcBeans.map(_.getCollectionTime).sum
    val o = TracedRun.run(spark, tracer, ds, b.initIds, unsolved, cfg)
    val gcS = (gcBeans.map(_.getCollectionTime).sum - gc0) / 1e3
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
    tracer.drain()
    tracer.close()

    // ---- checks: the traced run reproduces the untraced one
    attempted += 1
    val errs = mutable.ArrayBuffer.empty[String]
    val tracedLabels = o.finalRepo.labelsSpent
    if (o.confusion.f1 != plain.f1) errs += s"traced F1 ${o.confusion.f1} != untraced ${plain.f1}"
    if (tracedLabels != plain.labelsSpent) errs += s"traced labels $tracedLabels != untraced ${plain.labelsSpent}"
    if (o.finalRepo.numClusters != plain.repo.numClusters)
      errs += s"traced clusters ${o.finalRepo.numClusters} != untraced ${plain.repo.numClusters}"
    if (o.confusion.total != pairsU) errs += s"traced confusion.total ${o.confusion.total} != $pairsU"
    if (w.selection == "base" && tracedLabels > cfg.bTot) errs += s"labels $tracedLabels > b_tot"
    val modelOf: String => Option[Int] =
      if (w.selection == "base") o.assignment.get else o.finalRepo.modelOf.get
    val noModel = o.present.filterNot(p => modelOf(p).exists(o.finalRepo.clusters.contains))
    if (noModel.nonEmpty) errs += s"${noModel.size} unsolved problems without a model: ${noModel.take(5).mkString(",")}"
    if (w.selection == "base") {
      val differ = o.search.count { case (p, c, _) => o.assignment.get(p) != Some(c) }
      if (differ > 0) errs += s"selectBase disagrees with solveBaseAllWithTest on $differ problems"
    }
    val root = o.root
    val all = root.subtree
    val pipeline = all.filterNot(_.isProbe)
    val alSpans = pipeline.filter(_.name == "al.select")
    val (alInit, alRetrain) = alSpans.partition(_.within("core.initRepository"))
    val planned = o.budgets.values.sum
    if (alInit.map(_.attrs("budget")).sum != planned)
      errs += s"AL budgets ${alInit.map(_.attrs("budget")).sum} != Budget.distribute total $planned"
    if (errs.nonEmpty) {
      failures += s"traced: ${errs.mkString("; ")}"
      log(s"CHECK FAILED traced: ${errs.mkString("; ")}")
    }

    // ---- per-layer metrics
    def wall(name: String): Double = pipeline.filter(_.name == name).map(_.netS).sum
    def probeWall(name: String): Double = all.filter(s => s.probe && s.name == name).map(_.wallS).sum
    def jobsIn(s: Span): Int = s.subtree.filterNot(_.isProbe).map(_.jobs.size).sum
    val integrations = pipeline.filter(_.name == "core.integrate")
    val solveSpans = pipeline.filter(s => s.name == "core.solveBase" || s.name == "core.integrate")
    // The confusion job of a solve step is the one that runs the classifier.
    val classifyJobs = solveSpans.flatMap(_.subtree.filterNot(_.isProbe)).flatMap(_.jobs)
      .filter(_.callSite.contains("Metrics.scala"))
    val classifyS = Tracer.wallS(classifyJobs)
    val spark_ = Tracer.sparkTotals(pipeline)
    val constructLabels = o.constructed.labelsSpent
    val searchUs = o.search.map(_._3)
    val integrateMs = integrations.map(_.netS * 1e3)
    val decisions = o.decisions

    val metrics = Seq[Metric](
      ("erdata.generate_s", median(loadS), "s"),
      ("erdata.records", records.toDouble, "count"),
      ("erdata.pairs", ds.pairs.count().toDouble, "count"),
      ("erdata.matches", matches.toDouble, "count"),
      ("erdata.problems", ds.problemIds.size.toDouble, "count"),
      ("dist.histograms_s", wall("dist.histograms"), "s"),
      ("dist.counts_s", wall("dist.counts"), "s"),
      ("graph.build_s", probeWall("graph.build"), "s"),
      ("graph.nodes", o.graph.nodes.size.toDouble, "count"),
      ("graph.edges", o.graph.edges.size.toDouble, "count"),
      ("leiden.cluster_s", probeWall("leiden.cluster"), "s"),
      ("leiden.clusters", o.leidenClusters.toDouble, "count"),
      ("leiden.recluster_ms_p50", percentile(o.reclusterMs, 0.5), "ms"),
      ("leiden.recluster_ms_p90", percentile(o.reclusterMs, 0.9), "ms"),
      ("budget.clusters", o.constructed.numClusters.toDouble, "count"),
      ("budget.planned", planned.toDouble, "count"),
      ("budget.labels_spent", constructLabels.toDouble, "count"),
      ("budget.spent_ratio", constructLabels.toDouble / cfg.bTot, "1"),
      ("al.select_s", alInit.map(_.wallS).sum, "s"),
      ("al.calls", alInit.size.toDouble, "count"),
      ("al.labels", alInit.map(_.attrs("labels")).sum, "count"),
      ("al.pool_rows", alInit.map(_.attrs("pool_rows")).sum, "count"),
      ("al.jobs", alInit.map(jobsIn).sum.toDouble, "count"),
      ("al.retrain_s", alRetrain.map(_.wallS).sum, "s"),
      ("al.retrain_calls", alRetrain.size.toDouble, "count"),
      ("classify.solve_s", classifyS, "s"),
      ("classify.pairs", o.confusion.total.toDouble, "count"),
      ("classify.pairs_per_s", if (classifyS > 0) o.confusion.total / classifyS else 0.0, "1/s"),
      ("core.construct_s", wall("dist.histograms") + wall("dist.counts") + wall("core.initRepository"), "s"),
      ("core.solve_s", solveSpans.map(_.netS).sum, "s"),
      ("search.select_us_p50", percentile(searchUs, 0.5), "us"),
      ("search.select_us_p90", percentile(searchUs, 0.9), "us"),
      ("integrate.problem_ms_p50", percentile(integrateMs, 0.5), "ms"),
      ("integrate.problem_ms_p90", percentile(integrateMs, 0.9), "ms"),
      ("integrate.reuse", decisions.count(_.decision == "reuse").toDouble, "count"),
      ("integrate.retrain", decisions.count(_.decision == "retrain").toDouble, "count"),
      ("integrate.new", decisions.count(_.decision == "new").toDouble, "count"),
      ("integrate.labels", decisions.map(_.labels).sum.toDouble, "count"),
      ("integrate.jobs_per_problem",
        if (integrations.isEmpty) 0.0 else integrations.map(jobsIn).sum.toDouble / integrations.size, "jobs/problem"),
      ("spark.jobs", spark_.jobs.toDouble, "count"),
      ("spark.stages", spark_.stages.toDouble, "count"),
      ("spark.tasks", spark_.tasks.toDouble, "count"),
      ("spark.job_s", spark_.jobS, "s"),
      ("spark.task_s", spark_.taskS, "s"),
      ("spark.shuffle_mb", spark_.shuffleBytes / 1048576.0, "MB"),
      ("spark.driver_s", root.netS - spark_.jobS, "s"),
      ("jvm.gc_s", gcS, "s"),
      ("jvm.heap_peak_mb", heapPeakMb, "MB"),
      ("trace.run_s", root.wallS, "s"),
      ("trace.untraced_s", untracedS, "s"),
      ("trace.overhead_s", root.wallS - untracedS, "s"),
      ("trace.probe_s", root.probeS, "s"),
    )

    val spans = all.map { s =>
      val t = Tracer.sparkTotals(Seq(s))
      Map("id" -> s.id, "name" -> s.name, "path" -> s.path, "parent" -> s.parent.map(_.id),
        "probe" -> s.isProbe, "wall_s" -> s.wallS, "self_s" -> s.selfS, "probe_s" -> s.probeS,
        "jobs" -> t.jobs, "stages" -> t.stages, "tasks" -> t.tasks, "job_s" -> t.jobS,
        "task_s" -> t.taskS, "shuffle_bytes" -> t.shuffleBytes,
        "job_call_sites" -> s.jobs.map(_.callSite), "attrs" -> s.attrs)
    }
    val byName = pipeline.groupBy(_.name).toSeq.sortBy(-_._2.map(_.wallS).sum).map { case (n, ss) =>
      val t = Tracer.sparkTotals(ss)
      n -> Map("calls" -> ss.size, "wall_s" -> ss.map(_.wallS).sum, "self_s" -> ss.map(_.selfS).sum,
        "jobs" -> t.jobs, "job_s" -> t.jobS, "task_s" -> t.taskS)
    }.to(mutable.LinkedHashMap)
    val decisionLog = decisions.map { d =>
      Map("problem" -> d.problem, "decision" -> d.decision, "model" -> d.model,
        "labels" -> d.labels, "clusters_after" -> d.clustersAfter,
        "latency_ms" -> d.span.netS * 1e3, "spark_jobs" -> jobsIn(d.span))
    }
    log(f"traced ${root.wallS}%.2fs vs untraced ${untracedS}%.2fs; spark jobs ${spark_.jobs}; " +
      s"unattributed jobs ${tracer.unattributedJobs}")
    byName.foreach { case (n, m) =>
      log(f"  $n%-22s calls=${m("calls")}%4s wall=${m("wall_s").asInstanceOf[Double]}%8.3fs " +
        f"self=${m("self_s").asInstanceOf[Double]}%8.3fs jobs=${m("jobs")}")
    }
    (metrics, Map("layers" -> byName, "spans" -> spans, "decisions" -> decisionLog,
      "unattributed_jobs" -> tracer.unattributedJobs))
  }
}
