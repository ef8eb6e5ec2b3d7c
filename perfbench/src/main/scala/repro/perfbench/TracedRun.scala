package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.eval.Timing

/** `MoRER.run`, recomposed from the program's public layer functions so
  * that each call can be timed from outside: distribution analysis,
  * repository construction, search and the sel_base batch or the sel_cov
  * integration loop. The AL layer is timed through `TimingAL`. Layer
  * functions that the program only calls internally (graph build,
  * Leiden, budget split, search) are re-run as probes.
  */
object TracedRun {

  /** What sel_cov did with one unsolved problem, inferred from the
    * repository before and after `MoRER.solveCov`.
    */
  final case class Decision(problem: String, decision: String, model: Int, labels: Int,
                            clustersAfter: Int, span: Span)

  final case class Outcome(
      root: Span,
      confusion: Confusion,
      constructed: Repository,
      finalRepo: Repository,
      present: Seq[String],
      graph: ProblemGraph,
      leidenClusters: Int,
      budgets: Map[Int, Int],
      /** (problem, selected cluster, microseconds) per `MoRER.selectBase` call. */
      search: Seq[(String, Int, Double)],
      /** sel_base assignment returned by `solveBaseAllWithTest` (empty for sel_cov). */
      assignment: Map[String, Int],
      decisions: Seq[Decision],
      reclusterMs: Seq[Double],
  )

  def run(
      spark: SparkSession,
      tracer: Tracer,
      ds: ERDataset,
      initIds: Seq[String],
      unsolvedIds: Seq[String],
      baseCfg: MoRERConfig,
  ): Outcome = {
    val cfg = baseCfg.copy(al = new TimingAL(baseCfg.al, tracer))
    tracer.span("morer.run") { root =>
      val allHists = tracer.span("dist.histograms")(_ =>
        DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, cfg.numBins))
      val counts = tracer.span("dist.counts")(_ =>
        ds.pairs.groupBy("problemId").count().collect()
          .map(r => r.getString(0) -> r.getLong(1)).toMap)

      val ids = initIds.filter(allHists.contains).sorted
      val graph = tracer.probe("graph.build")(ProblemGraph.build(allHists, ids, cfg.test, cfg.edgePolicy))
      val comm = tracer.probe("leiden.cluster")(Leiden.cluster(graph.nodes.size, graph.edges, seed = cfg.seed))

      val repo = tracer.span("core.initRepository")(_ =>
        MoRER.initRepository(spark, ds, initIds, allHists, counts, cfg))

      // The repository's clusters are the budget split's input after the
      // Eq. 4 singleton merge.
      val infos = repo.clusters.values.toSeq.sortBy(_.id).map { cm =>
        val pids = cm.problemIds.toSeq.sorted
        Budget.ClusterInfo(cm.id, pids, pids.map(p => counts.getOrElse(p, 0L)).sum)
      }
      val budgets = tracer.probe("budget.distribute")(Budget.distribute(infos, cfg.bTot, cfg.bMin))

      val present = unsolvedIds.filter(allHists.contains).sorted
      val search = tracer.probe("search.selectBase")(present.map { pid =>
        val (c, secs) = Timing.timed(MoRER.selectBase(repo, pid, cfg.test))
        (pid, c, secs * 1e6)
      })

      val common = Outcome(root, Confusion.empty, repo, repo, present, graph, comm.distinct.length,
        budgets, search, Map.empty, Nil, Nil)

      cfg.selection match {
        case "base" =>
          val (conf, assignment) = tracer.span("core.solveBase")(_ =>
            MoRER.solveBaseAllWithTest(spark, ds, repo, present, cfg.test))
          common.copy(confusion = conf, assignment = assignment)
        case "cov" =>
          var r = repo
          var conf = Confusion.empty
          val recluster = Seq.newBuilder[Double]
          val decisions = present.map { pid =>
            val (c, r2, s) = tracer.span("core.integrate") { s =>
              val (c, r2) = MoRER.solveCov(spark, ds, r, pid, cfg)
              (c, r2, s)
            }
            recluster += tracer.probe("leiden.recluster")(
              Timing.timed(Leiden.cluster(r2.graph.nodes.size, r2.graph.edges, seed = cfg.seed)))._2 * 1e3
            val model = r2.modelOf.getOrElse(pid, -1)
            val kind =
              if (r2.nextId > r.nextId) "new"
              else if (r2.clusters eq r.clusters) "reuse"
              else "retrain"
            val d = Decision(pid, kind, model, r2.labelsSpent - r.labelsSpent, r2.numClusters, s)
            conf = conf + c
            r = r2
            d
          }
          common.copy(confusion = conf, finalRepo = r, decisions = decisions,
            reclusterMs = recluster.result())
        case other => throw new IllegalArgumentException(s"unknown selection $other")
      }
    }
  }
}
