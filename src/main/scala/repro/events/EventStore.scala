package repro.events

import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.types.UTF8String

/** Domain-specific storage for system monitoring data.
  *
  * The paper stores events in relational DBs tuned with deduplication, batch
  * commit, and **time + space partitioning** (plus hypertables); here the
  * equivalent substrate is Parquet on the local filesystem, materialized in
  * both partition dimensions:
  *
  *  - `by_agent_day/agent_id=A/day=D/` — the primary layout; a host-scoped
  *    investigation query prunes to exactly its (agent, day) directories;
  *  - `by_day/day=D/` — a coalesced per-day copy (few large files) for
  *    cross-host queries, which would otherwise open one small file per
  *    host;
  *  - `catalog.tsv` — one `agent_id \t day \t rows` line per `(agent, day)`
  *    partition, written at ingest: the store's own statistics, from which
  *    the engine lists and sizes a footprint without touching the layouts.
  *
  * Global constraints of an AIQL query (`agentid = …`, `(at "…")`) prune
  * whole directories at file-listing time — one of the engine's
  * domain-specific advantages over the "one flat table" execution model of
  * the SQL comparator.
  */
object EventStore {

  private def byAgentDay(path: String) = s"$path/by_agent_day"
  private def byDay(path: String) = s"$path/by_day"
  private def catalogFile(path: String): Path = Paths.get(path, "catalog.tsv")

  /** Write `events` (conforming to [[EventSchema.schema]]) as a partitioned
    * store at `path`, in both layouts, and its catalog. Exact duplicate
    * interactions (same [[EventSchema.dedupKey]]) are collapsed to one row,
    * keeping the smallest `event_id`. The old catalog is deleted first and
    * the new one written last, so a write that fails leaves a store that
    * cannot be read.
    */
  def write(events: DataFrame, path: String): Unit = {
    Files.deleteIfExists(catalogFile(path))
    val deduped = dedup(events).cache()
    try {
      // repartition on the layout keys so each leaf directory holds one
      // file, not one per shuffle partition
      deduped.repartition(col("agent_id"), col("day")).write
        .mode("overwrite")
        .partitionBy("agent_id", "day")
        .parquet(byAgentDay(path))
      deduped.repartition(col("day")).write
        .mode("overwrite")
        .partitionBy("day")
        .parquet(byDay(path))
      val lines = countPartitions(deduped).toSeq.sorted.map { case ((a, d), n) => s"$a\t$d\t$n" }
      Files.write(catalogFile(path), lines.asJava)
    } finally deduped.unpersist()
  }

  /** Rows per `(agent_id, day)` of `events`, counted inside each task and
    * merged in the driver: one job, and no shuffle. The tasks read Spark's
    * internal rows, which skips converting each one to a [[Row]]; a row's
    * `day` may point into a reused buffer, so it is copied.
    */
  private def countPartitions(events: DataFrame): Map[(Int, String), Long] =
    events.select("agent_id", "day").queryExecution.toRdd.mapPartitions { rows =>
      val n = scala.collection.mutable.Map[(Int, UTF8String), Long]().withDefaultValue(0L)
      rows.foreach(r => n((r.getInt(0), r.getUTF8String(1).clone())) += 1)
      n.iterator.map { case ((a, d), c) => ((a, d.toString), c) }
    }.collect().toSeq.groupMapReduce(_._1)(_._2)(_ + _)

  /** Ingestion-time deduplication: one row per logical interaction key. */
  def dedup(events: DataFrame): DataFrame = {
    val others = events.columns.filterNot(EventSchema.dedupKey.contains)
    val aggs = others.map(c => min(col(c)).as(c))
    events
      .groupBy(EventSchema.dedupKey.map(col): _*)
      .agg(aggs.head, aggs.tail: _*)
      .select(events.columns.map(col): _*)
  }

  /** Read the full store (via the coarse per-day layout — fewest files). */
  def read(spark: SparkSession, path: String): DataFrame = readPruned(spark, path, None, None)

  /** Read with spatial/temporal partition pruning: only the directories of
    * the footprint's [[partitions]] are listed and scanned — pruning happens
    * at file-listing time (the store-layout optimization), not merely as a
    * pushed filter. Agent-bound reads use the fine `by_agent_day` layout;
    * day-only reads and the whole store use the coalesced `by_day` layout.
    */
  def readPruned(spark: SparkSession, path: String,
                 agents: Option[Seq[Int]], days: Option[Seq[String]]): DataFrame =
    readPartitions(spark, path, partitions(path, agents, days).map(_._1), wholeDays = agents.isEmpty)

  /** The footprint of `agents` and `days` (None: all of them): the
    * `(agent_id, day)` partitions the store holds there, by agent then day,
    * with their rows as [[write]] recorded them in the catalog — no Spark
    * job, and no file of the layouts is opened. A store without its catalog
    * is an error (`NoSuchFileException` naming the file), never an empty
    * store.
    */
  def partitions(path: String, agents: Option[Seq[Int]],
                 days: Option[Seq[String]]): Seq[((Int, String), Long)] =
    Files.readAllLines(catalogFile(path)).asScala.toSeq.map { line =>
      val Array(a, d, n) = line.split('\t')
      (a.toInt, d) -> n.toLong
    }.filter { case ((a, d), _) => agents.forall(_.contains(a)) && days.forall(_.contains(d)) }
      .sortBy(_._1)

  /** Read listed `(agent_id, day)` partitions in one scan: their
    * `by_agent_day` directories, or with `wholeDays` the `by_day`
    * directories of their days (which hold every partition of those days).
    */
  def readPartitions(spark: SparkSession, path: String, parts: Seq[(Int, String)],
                     wholeDays: Boolean = false): DataFrame =
    if (wholeDays)
      readDirs(spark, byDay(path), parts.map(_._2).distinct.sorted.map(d => s"${byDay(path)}/day=$d"))
    else
      readDirs(spark, byAgentDay(path),
        parts.map { case (a, d) => s"${byAgentDay(path)}/agent_id=$a/day=$d" })

  /** One scan over `dirs`; with none, an empty local relation, which the
    * optimizer folds, so a query over it starts no Spark job.
    */
  private def readDirs(spark: SparkSession, basePath: String, dirs: Seq[String]): DataFrame =
    if (dirs.isEmpty)
      spark.createDataFrame(java.util.List.of[Row](), EventSchema.schema)
    else
      spark.read
        .option("basePath", basePath)
        .schema(EventSchema.schema)
        .parquet(dirs: _*)
        .select(EventSchema.columns.map(col): _*)

  /** A deliberately *unpartitioned* copy of the store, as the flat relational
    * table the SQL comparator queries (no domain partition layout).
    */
  def writeFlat(events: DataFrame, path: String): Unit =
    dedup(events).write.mode("overwrite").parquet(path)

  def readFlat(spark: SparkSession, path: String): DataFrame =
    spark.read.schema(EventSchema.schema).parquet(path)
      .select(EventSchema.columns.map(col): _*)
}
