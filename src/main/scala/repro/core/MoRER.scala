package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.al.{ALConfig, ActiveLearner, AlmserAL, BootstrapAL}
import repro.erdata.ERDataset
import repro.eval.Metrics
import repro.eval.Metrics.Confusion
import repro.ml.PoolVector

/** MoRER configuration — the paper's parameter grid (Table 3). Defaults
  * are the paper's bold defaults: ratio_init handled by the caller's
  * problem split, KS test, AL model generation, sel_base selection.
  */
final case class MoRERConfig(
    test: DistTest = KS,
    clusterAlgo: String = "leiden",      // leiden | labelprop
    modelGen: String = "al",             // al | supervised
    al: ActiveLearner = BootstrapAL,
    bTot: Int = 1000,
    bMin: Int = 20,
    alK: Int = 20,                       // committee size k (paper: 100)
    alBatch: Int = 100,
    alInit: Int = 50,
    numBins: Int = DistributionAnalysis.DefaultBins,
    selection: String = "base",          // base | cov
    tCov: Double = 0.25,
    rfTrees: Int = 10,
    rfDepth: Int = 8,
    edgePolicy: ProblemGraph.EdgePolicy = ProblemGraph.AboveMean,
    /** training cap per cluster for the supervised (no-AL) variant. */
    supervisedCap: Int = 20000,
    seed: Long = 7,
) {
  def alConfig: ALConfig = ALConfig(kModels = alK, batchSize = alBatch, initSize = alInit)
}

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

  private def clusterGraph(g: ProblemGraph, cfg: MoRERConfig): Array[Int] =
    cfg.clusterAlgo match {
      case "leiden"    => Leiden.cluster(g.nodes.size, g.edges, seed = cfg.seed)
      case "labelprop" => Leiden.labelPropagation(g.nodes.size, g.edges, seed = cfg.seed)
      case other       => throw new IllegalArgumentException(s"unknown cluster algo $other")
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
    val comm  = clusterGraph(graph, cfg)

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

    var models = Map.empty[Int, ClusterModel]
    var modelOf = Map.empty[String, Int]
    var spent = 0
    var nextId = 0
    infos.foreach { info =>
      val pool = pairsI.filter(col("problemId").isin(info.problemIds: _*))
      val cm = cfg.modelGen match {
        case "supervised" =>
          val training = supervisedSample(pool, cfg.supervisedCap, cfg.seed)
          ModelRepository.fitFromTraining(nextId, training, info.problemIds.toSet,
            ds.numFeatures, cfg.numBins, cfg.rfTrees, cfg.rfDepth, cfg.seed + nextId)
        case _ =>
          val cm0 = ModelRepository.buildClusterModel(spark, nextId, pool,
            info.problemIds.toSet, budgets(info.id), cfg.al, cfg.alConfig, idf,
            ds.numFeatures, cfg.numBins, cfg.rfTrees, cfg.rfDepth, cfg.seed + nextId)
          spent += cm0.training.size
          cm0
      }
      models += nextId -> cm
      modelOf ++= info.problemIds.map(_ -> nextId)
      nextId += 1
    }
    pairsI.unpersist()

    Repository(models, graph, modelOf, allHists, vectorCounts, ids.toSet, spent, nextId)
  }

  /** The supervised (no-AL) model-generation variant: all pool vectors
    * as training data, capped by sampling for tractability.
    */
  private def supervisedSample(pool: DataFrame, cap: Int, seed: Long): IndexedSeq[PoolVector] = {
    val n = pool.count()
    val sampled =
      if (n <= cap) pool
      else pool.sample(withReplacement = false, cap.toDouble / n, seed)
    sampled.collect().toIndexedSeq.map(repro.al.ActiveLearner.toPoolVector)
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

    val comm = clusterGraph(graph2, cfg)
    val myComm = comm(graph2.index(pid))
    val members = graph2.nodes.zipWithIndex.collect { case (n, i) if comm(i) == myComm => n }
    val solvedMembers   = members.filter(repo.solvedT.contains)
    val unsolvedMembers = members.filterNot(repo.solvedT.contains) // ⊆ U, includes pid

    def poolOf(pids: Seq[String]): DataFrame =
      poolColumns(ds.pairs.filter(col("problemId").isin(pids: _*)))

    val (modelId, repo2) =
      if (solvedMembers.isEmpty) {
        // Entirely-new cluster: train a fresh model. The paper specifies
        // *that* a new model is trained but not its budget; we grant the
        // cluster minimum, floored at twice the AL warm-start size so the
        // fresh model sees both classes.
        val newBudget = math.max(cfg.bMin, cfg.alConfig.initSize * 2)
        val cm = ModelRepository.buildClusterModel(spark, repo.nextId,
          poolOf(unsolvedMembers), unsolvedMembers.toSet, newBudget, cfg.al,
          cfg.alConfig, Map.empty, ds.numFeatures, cfg.numBins, cfg.rfTrees,
          cfg.rfDepth, cfg.seed + repo.nextId)
        val r = repo.copy(
          clusters = repo.clusters + (repo.nextId -> cm),
          graph = graph2,
          modelOf = repo.modelOf ++ unsolvedMembers.map(_ -> repo.nextId),
          solvedT = repo.solvedT ++ unsolvedMembers,
          labelsSpent = repo.labelsSpent + cm.training.size,
          nextId = repo.nextId + 1)
        (cm.id, r)
      } else {
        // Reuse the previous cluster with maximum overlap (majority of the
        // solved members' current model assignments).
        val prevId = solvedMembers.flatMap(repo.modelOf.get)
          .groupBy(identity).maxBy { case (id, xs) => (xs.size, -id) }._1
        val prev = repo.clusters(prevId)

        // Coverage ratio (Eq. 13): share of the cluster's vectors coming
        // from problems not yet used for training.
        val uVecs = unsolvedMembers.map(p => repo.vectorCounts.getOrElse(p, 0L)).sum.toDouble
        val aVecs = members.map(p => repo.vectorCounts.getOrElse(p, 0L)).sum.toDouble
        val cov = if (aVecs > 0) uVecs / aVecs else 0.0

        if (cov > cfg.tCov) {
          // Retrain (Eq. 14): b_new = b_tot · cov · |T∩C_prev|/b_tot
          //                        = cov · (previous training size).
          val bNew = math.max(1, math.round(cov * prev.training.size).toInt)
          val fresh = cfg.al.select(spark, poolOf(unsolvedMembers), bNew,
            cfg.alConfig, Map.empty, cfg.seed + repo.nextId)
          val cm = ModelRepository.fitFromTraining(prevId,
            prev.training ++ fresh, prev.problemIds ++ unsolvedMembers,
            ds.numFeatures, cfg.numBins, cfg.rfTrees, cfg.rfDepth, cfg.seed + prevId)
          val r = repo.copy(
            clusters = repo.clusters + (prevId -> cm),
            graph = graph2,
            modelOf = repo.modelOf ++ members.map(_ -> prevId),
            solvedT = repo.solvedT ++ unsolvedMembers,
            labelsSpent = repo.labelsSpent + fresh.size)
          (prevId, r)
        } else {
          val r = repo.copy(
            graph = graph2,
            modelOf = repo.modelOf + (pid -> prevId))
          (prevId, r)
        }
      }

    val pred = ModelRepository.classify(spark, ds.pairs.filter(col("problemId") === pid),
      repo2.clusters(modelId).model)
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
        var r = repo
        var conf = Confusion.empty
        present.foreach { pid =>
          val (c, r2) = solveCov(spark, ds, r, pid, cfg)
          conf = conf + c
          r = r2
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
