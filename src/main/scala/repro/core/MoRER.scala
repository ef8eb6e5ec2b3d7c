package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.al.{ALConfig, ActiveLearner, BootstrapAL}
import repro.erdata.ERDataset
import repro.eval.Metrics
import repro.eval.Metrics.Confusion
import repro.ml.PoolVector

/** MoRER configuration — the paper's parameter grid (Table 3). Defaults
  * are the paper's bold defaults: ratio_init handled by the caller's
  * problem split, KS test, Leiden clustering, AL model generation,
  * sel_base selection.
  */
final case class MoRERConfig(
    test: DistTest = KS,
    al: ActiveLearner = BootstrapAL,
    alConfig: ALConfig = ALConfig(),     // committee size k = 20 (paper: 100)
    bTot: Int = 1000,
    bMin: Int = 20,
    numBins: Int = DistributionAnalysis.DefaultBins,
    selection: String = "base",          // base | cov
    tCov: Double = 0.25,
    edgePolicy: ProblemGraph.EdgePolicy = ProblemGraph.AboveMean,
    seed: Long = 7,
)

final case class MoRERResult(
    confusion: Confusion,
    repo: Repository,
    /** pooled F1 over all unsolved problems. */
    labelsSpent: Int,
) {
  def f1: Double = confusion.f1
}

/** End-to-end MoRER pipeline (paper §4): distribution analysis →
  * ER-problem graph → Leiden clustering → budgeted AL per cluster →
  * repository; then sel_base / sel_cov to solve the unsolved problems.
  */
object MoRER {

  private def poolColumns(pairs: DataFrame): DataFrame =
    pairs.select("problemId", "recA", "recB", "features", "label")

  /** Train one cluster model: label `budget` more vectors of `pool` with
    * the configured learner, seeded by the repository's `nextId`, and fit
    * model `id` on `prev`'s training vectors plus the new ones. Without a
    * `prev` this builds a fresh model (repository construction, or a new
    * sel_cov cluster); with one it is the sel_cov retrain of Eq. 14.
    */
  private def train(
      spark: SparkSession,
      ds: ERDataset,
      cfg: MoRERConfig,
      id: Int,
      nextId: Int,
      prev: Option[ClusterModel],
      members: Seq[String],
      pool: DataFrame,
      budget: Int,
      idf: Map[Long, Double],
  ): ClusterModel = {
    val fresh = cfg.al.select(spark, pool, budget, cfg.alConfig, idf, cfg.seed + nextId)
    ModelRepository.fitFromTraining(id, prev.fold(IndexedSeq.empty[PoolVector])(_.training) ++ fresh,
      prev.fold(Set.empty[String])(_.problemIds) ++ members, ds.numFeatures, cfg.numBins, cfg.seed + id)
  }

  /** Initialize the repository from the solved problems P_I
    * (steps 1–3 of Fig. 3).
    *
    * @param allHists      per-problem feature histograms (must cover initIds)
    * @param vectorCounts  per-problem pair counts (must cover initIds)
    */
  def initRepository(
      spark: SparkSession,
      ds: ERDataset,
      initIds: Seq[String],
      allHists: Map[String, IndexedSeq[FeatureHistogram]],
      vectorCounts: Map[String, Long],
      cfg: MoRERConfig,
  ): Repository = {
    val ids = initIds.filter(allHists.contains).sorted
    val graph = ProblemGraph.build(allHists, ids, cfg.test, cfg.edgePolicy)
    val comm  = Leiden.cluster(graph.nodes.size, graph.edges, seed = cfg.seed)

    var infos: Seq[Budget.ClusterInfo] = comm.zipWithIndex
      .groupBy(_._1)
      .map { case (c, members) =>
        val pids = members.map(m => graph.nodes(m._2)).toSeq.sorted
        Budget.ClusterInfo(c, pids, pids.map(p => vectorCounts.getOrElse(p, 0L)).sum)
      }.toSeq.sortBy(_.id)

    // Eq. 4: merge singletons into their most-similar non-singleton cluster
    // when the budget cannot give every cluster its minimum.
    if (Budget.needsMerge(infos.size, cfg.bTot, cfg.bMin)) {
      def clusterSim(a: Budget.ClusterInfo, b: Budget.ClusterInfo): Double = {
        val sims = for (pa <- a.problemIds; pb <- b.problemIds)
          yield DistributionAnalysis.problemSimilarity(allHists(pa), allHists(pb), cfg.test)
        if (sims.isEmpty) 0.0 else sims.sum / sims.size
      }
      infos = Budget.mergeSingletons(infos, clusterSim)
      if (Budget.needsMerge(infos.size, cfg.bTot, cfg.bMin))
        throw new IllegalArgumentException(
          s"budget ${cfg.bTot} too small even after merging (${infos.size} clusters, b_min=${cfg.bMin})")
    }

    val budgets = Budget.distribute(infos, cfg.bTot, cfg.bMin)
    val clusterOfProblem = infos.flatMap(c => c.problemIds.map(_ -> c.id)).toMap

    val pairsI = poolColumns(ds.pairs.filter(col("problemId").isin(ids: _*))).cache()
    pairsI.count()
    val idf = ModelRepository.idfScores(spark, pairsI, clusterOfProblem)

    val models = infos.zipWithIndex.map { case (info, i) =>
      val pool = pairsI.filter(col("problemId").isin(info.problemIds: _*))
      train(spark, ds, cfg, i, i, None, info.problemIds, pool, budgets(info.id), idf)
    }
    pairsI.unpersist()

    Repository(models.map(cm => cm.id -> cm).toMap, graph,
      models.flatMap(cm => cm.problemIds.map(_ -> cm.id)).toMap, allHists, vectorCounts,
      ids.toSet, models.map(_.training.size).sum, models.size)
  }

  /** sel_base for a single problem with an explicit distribution test. */
  def selectBase(repo: Repository, pid: String, test: DistTest): Int = {
    val h = repo.problemHists(pid)
    repo.clusters.values.maxBy(cm => DistributionAnalysis.problemSimilarity(h, cm.hist, test)).id
  }

  /** sel_cov: integrate one new ER problem into the graph, re-cluster,
    * and reuse / retrain / create the cluster model (paper §4.5,
    * Eqs. 13–14). Returns the confusion on the problem's pairs and the
    * updated repository.
    */
  def solveCov(
      spark: SparkSession,
      ds: ERDataset,
      repo: Repository,
      pid: String,
      cfg: MoRERConfig,
  ): (Confusion, Repository) = {
    val h = repo.problemHists(pid)

    // Extend G_P: edges from the new problem to every existing node,
    // filtered by the graph's current mean edge weight (same sparsity
    // policy as at build time).
    val sims = repo.graph.nodes.map(n =>
      n -> DistributionAnalysis.problemSimilarity(h, repo.problemHists(n), cfg.test))
    val cut =
      if (repo.graph.edges.isEmpty) 0.0
      else repo.graph.edges.values.sum / repo.graph.edges.size
    val graph2 = repo.graph.addNode(pid, sims.filter(_._2 >= cut))

    val comm = Leiden.cluster(graph2.nodes.size, graph2.edges, seed = cfg.seed)
    val myComm = comm(graph2.index(pid))
    val members = graph2.nodes.zipWithIndex.collect { case (n, i) if comm(i) == myComm => n }
    val solvedMembers   = members.filter(repo.solvedT.contains)
    val unsolvedMembers = members.filterNot(repo.solvedT.contains) // ⊆ U, includes pid

    // The previous cluster with maximum overlap (majority of the solved
    // members' current model assignments); none if no member is solved.
    val prev = if (solvedMembers.isEmpty) None else Some(repo.clusters(
      solvedMembers.flatMap(repo.modelOf.get).groupBy(identity).maxBy { case (id, xs) => (xs.size, -id) }._1))

    // Coverage ratio (Eq. 13): share of the cluster's vectors coming
    // from problems not yet used for training.
    val uVecs = unsolvedMembers.map(p => repo.vectorCounts.getOrElse(p, 0L)).sum.toDouble
    val aVecs = members.map(p => repo.vectorCounts.getOrElse(p, 0L)).sum.toDouble
    val cov = if (aVecs > 0) uVecs / aVecs else 0.0

    val repo2 = prev match {
      case Some(p) if cov <= cfg.tCov =>
        repo.copy(graph = graph2, modelOf = repo.modelOf + (pid -> p.id))
      case _ =>
        // Retrain (Eq. 14): b_new = b_tot · cov · |T∩C_prev|/b_tot
        //                        = cov · (previous training size).
        // An entirely-new cluster retrains an empty previous model under
        // a new id. The paper specifies *that* a new model is trained but
        // not its budget; we grant the cluster minimum, floored at twice
        // the AL warm-start size so the fresh model sees both classes.
        val (id, budget) = prev match {
          case Some(p) => (p.id, math.max(1, math.round(cov * p.training.size).toInt))
          case None    => (repo.nextId, math.max(cfg.bMin, cfg.alConfig.initSize * 2))
        }
        val pool = poolColumns(ds.pairs.filter(col("problemId").isin(unsolvedMembers: _*)))
        val cm = train(spark, ds, cfg, id, repo.nextId, prev, unsolvedMembers, pool, budget, Map.empty)
        repo.copy(
          clusters = repo.clusters + (id -> cm),
          graph = graph2,
          modelOf = repo.modelOf ++ members.map(_ -> id),
          solvedT = repo.solvedT ++ unsolvedMembers,
          labelsSpent = repo.labelsSpent + cm.training.size - prev.fold(0)(_.training.size),
          nextId = math.max(repo.nextId, id + 1))
    }

    val pred = ModelRepository.classify(spark, ds.pairs.filter(col("problemId") === pid),
      repo2.clusters(repo2.modelOf(pid)).model)
    (Metrics.confusion(pred), repo2)
  }

  /** Full run: init repository on `initIds`, solve every problem in
    * `unsolvedIds` with the configured selection strategy, return the
    * pooled confusion over all unsolved pairs.
    */
  def run(
      spark: SparkSession,
      ds: ERDataset,
      initIds: Seq[String],
      unsolvedIds: Seq[String],
      cfg: MoRERConfig,
  ): MoRERResult = {
    val allHists = DistributionAnalysis.histograms(ds.pairs, ds.numFeatures, cfg.numBins)
    val counts = ds.pairs.groupBy("problemId").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val repo = initRepository(spark, ds, initIds, allHists, counts, cfg)
    val present = unsolvedIds.filter(allHists.contains).sorted

    cfg.selection match {
      case "base" =>
        val (conf, _) = solveBaseAllWithTest(spark, ds, repo, present, cfg.test)
        MoRERResult(conf, repo, repo.labelsSpent)
      case "cov" =>
        val (conf, r) = present.foldLeft((Confusion.empty, repo)) { case ((conf, r), pid) =>
          val (c, r2) = solveCov(spark, ds, r, pid, cfg)
          (conf + c, r2)
        }
        MoRERResult(conf, r, r.labelsSpent)
      case other => throw new IllegalArgumentException(s"unknown selection $other")
    }
  }

  /** sel_base batch classification with an explicit distribution test. */
  def solveBaseAllWithTest(
      spark: SparkSession,
      ds: ERDataset,
      repo: Repository,
      unsolvedIds: Seq[String],
      test: DistTest,
  ): (Confusion, Map[String, Int]) = {
    val assignment = unsolvedIds.filter(repo.problemHists.contains)
      .map(pid => pid -> selectBase(repo, pid, test)).toMap
    val models = assignment.map { case (pid, cid) => pid -> repo.clusters(cid).model }
    val pairsU = ds.pairs.filter(col("problemId").isin(unsolvedIds: _*))
    val pred   = ModelRepository.classifyWithAssignments(spark, pairsU, models)
    (Metrics.confusion(pred), assignment)
  }
}
