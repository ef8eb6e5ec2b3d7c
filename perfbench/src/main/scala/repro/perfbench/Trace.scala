package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.al.{ALConfig, ActiveLearner}
import repro.ml.PoolVector

/** One timed call into a layer, recorded from outside the program.
  *
  * `probe` spans re-run a layer function the program calls internally
  * (for instance `ProblemGraph.build` inside `MoRER.initRepository`) so
  * that it can be timed on its own. Their time and Spark jobs are not
  * part of the pipeline: they count as tracing overhead.
  */
final class Span(val id: Int, val name: String, val parent: Option[Span], val probe: Boolean) {
  val t0: Long = System.nanoTime()
  var t1: Long = t0
  val children: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  val attrs: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  // Spark work charged to this span alone (not its children).
  val jobs: mutable.ArrayBuffer[Tracer.Job] = mutable.ArrayBuffer.empty
  var stages = 0
  var tasks = 0
  var taskMs = 0L
  var shuffleBytes = 0L

  def wallS: Double = (t1 - t0) / 1e9
  def selfS: Double = wallS - children.map(_.wallS).sum
  /** Wall time of the outermost probes run inside this span. */
  def probeS: Double = children.map(c => if (c.probe) c.wallS else c.probeS).sum
  /** Wall time without the probes run inside it. */
  def netS: Double = wallS - probeS
  def isProbe: Boolean = probe || parent.exists(_.isProbe)
  def path: String = parent.fold(name)(p => s"${p.path}/$name")
  def within(n: String): Boolean = name == n || parent.exists(_.within(n))
  def subtree: Seq[Span] = this +: children.toSeq.flatMap(_.subtree)
}

/** Span recorder plus a `SparkListener` that charges every Spark job,
  * stage and task to the span open on the driver thread when the job
  * was submitted. The open span travels with each job as a local
  * property, so attribution stays exact although listener events arrive
  * asynchronously.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  import Tracer.SpanKey

  private val byId = new ConcurrentHashMap[Int, Span]()
  private val spanOfStage = new ConcurrentHashMap[Int, Span]()
  private val jobOf = new ConcurrentHashMap[Int, Tracer.Job]()
  private val queryCallSite = new ConcurrentHashMap[Long, String]()
  private var stack: List[Span] = Nil
  private var nextId = 0
  @volatile var unattributedJobs = 0

  sc.addSparkListener(this)

  def span[A](name: String, probe: Boolean = false)(body: Span => A): A = {
    val s = new Span(nextId, name, stack.headOption, probe)
    nextId += 1
    byId.put(s.id, s)
    s.parent.foreach(_.children += s)
    stack = s :: stack
    sc.setLocalProperty(SpanKey, s.id.toString)
    try body(s)
    finally {
      s.t1 = System.nanoTime()
      stack = stack.tail
      sc.setLocalProperty(SpanKey, stack.headOption.map(_.id.toString).orNull)
    }
  }

  def probe[A](name: String)(body: => A): A = span(name, probe = true)(_ => body)

  /** Wait until every listener event posted so far has been handled. */
  def drain(): Unit = ListenerBusAccess.drain(sc)

  def close(): Unit = sc.removeSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val id = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey)))
    id.flatMap(i => Option(byId.get(i.toInt))) match {
      case Some(s) =>
        // A DataFrame action runs as one SQL query of one or more jobs;
        // the query carries the action's call site.
        val query = Option(e.properties.getProperty("spark.sql.execution.id")).map(_.toLong)
        val site = query.flatMap(q => Option(queryCallSite.get(q))).getOrElse("")
        val job = Tracer.Job(e.jobId, site, e.time)
        s.synchronized { s.jobs += job }
        jobOf.put(e.jobId, job)
        e.stageIds.foreach(st => spanOfStage.put(st, s))
      case None => unattributedJobs += 1
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case q: SparkListenerSQLExecutionStart => queryCallSite.put(q.executionId, q.description)
    case _ =>
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobOf.get(e.jobId)).foreach(_.endMs = e.time)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(spanOfStage.get(e.stageInfo.stageId)).foreach(s => s.synchronized { s.stages += 1 })

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(spanOfStage.get(e.stageId)).foreach { s =>
      s.synchronized {
        s.tasks += 1
        Option(e.taskMetrics).foreach { m =>
          s.taskMs += m.executorRunTime
          s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten + m.shuffleReadMetrics.totalBytesRead
        }
      }
    }
}

object Tracer {
  val SpanKey = "perfbench.span"

  /** One Spark job: the call site of the action that ran it and its
    * wall interval in epoch milliseconds.
    */
  final case class Job(id: Int, callSite: String, startMs: Long) {
    @volatile var endMs: Long = startMs
  }

  /** Seconds covered by the union of the jobs' wall intervals. */
  def wallS(jobs: Seq[Job]): Double = {
    var covered = 0L; var end = Long.MinValue
    jobs.sortBy(_.startMs).foreach { j =>
      if (j.endMs > end) { covered += j.endMs - math.max(j.startMs, end); end = j.endMs }
    }
    covered / 1e3
  }

  /** Spark totals over spans: jobs, stages, tasks, job wall seconds (the
    * union of the job intervals), executor seconds and shuffle bytes.
    */
  final case class SparkTotals(jobs: Int, stages: Int, tasks: Int, jobS: Double,
                               taskS: Double, shuffleBytes: Long)

  def sparkTotals(spans: Seq[Span]): SparkTotals =
    SparkTotals(spans.map(_.jobs.size).sum, spans.map(_.stages).sum, spans.map(_.tasks).sum,
      wallS(spans.flatMap(_.jobs)), spans.map(_.taskMs).sum / 1e3, spans.map(_.shuffleBytes).sum)
}

/** Times every call into the AL layer. Passed to the program as
  * `MoRERConfig.al`; the wrapped learner makes all the decisions.
  */
final class TimingAL(inner: ActiveLearner, @transient tracer: Tracer) extends ActiveLearner {
  def name: String = inner.name

  def select(spark: SparkSession, pool: DataFrame, budget: Int, cfg: ALConfig,
             idf: Map[Long, Double], seed: Long): IndexedSeq[PoolVector] = {
    val (out, s) = tracer.span("al.select") { s =>
      (inner.select(spark, pool, budget, cfg, idf, seed), s)
    }
    s.attrs("budget") = budget
    s.attrs("labels") = out.size
    s.attrs("pool_rows") = tracer.probe("al.pool_rows")(pool.count()).toDouble
    out
  }
}
