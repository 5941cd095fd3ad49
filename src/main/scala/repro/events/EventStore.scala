package repro.events

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

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
  *    host.
  *
  * Global constraints of an AIQL query (`agentid = …`, `(at "…")`) prune
  * whole directories at file-listing time — one of the engine's
  * domain-specific advantages over the "one flat table" execution model of
  * the SQL comparator.
  */
object EventStore {

  private def byAgentDay(path: String) = s"$path/by_agent_day"
  private def byDay(path: String) = s"$path/by_day"

  /** Write `events` (conforming to [[EventSchema.schema]]) as a partitioned
    * store at `path`, in both layouts. Exact duplicate interactions (same
    * [[EventSchema.dedupKey]]) are collapsed to one row, keeping the
    * smallest `event_id`.
    */
  def write(events: DataFrame, path: String): Unit = {
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
    } finally deduped.unpersist()
  }

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

  /** Read with spatial/temporal partition pruning: only the directories for
    * the requested agents/days are listed and scanned — pruning happens at
    * file-listing time (the store-layout optimization), not merely as a
    * pushed filter. Agent-bound reads use the fine `by_agent_day` layout;
    * day-only reads and the whole store use the coalesced `by_day` layout.
    */
  def readPruned(spark: SparkSession, path: String,
                 agents: Option[Seq[Int]], days: Option[Seq[String]]): DataFrame = {
    val (base, dirs) = prunedDirs(path, agents, days)
    readDirs(spark, base, dirs)
  }

  /** The number of rows [[readPruned]] returns, summed from the row counts
    * in the Parquet footers of the files it lists: no Spark job, and no
    * data page is read.
    */
  def prunedRows(spark: SparkSession, path: String,
                 agents: Option[Seq[Int]], days: Option[Seq[String]]): Long =
    footerRows(spark, prunedDirs(path, agents, days)._2)

  /** The row counts in the Parquet footers of the data files under `dirs`. */
  private def footerRows(spark: SparkSession, dirs: Seq[String]): Long = {
    val conf = spark.sparkContext.hadoopConfiguration
    dirs.iterator.flatMap { dir =>
      val files = Files.walk(Paths.get(dir))
      try files.iterator.asScala.filter(isDataFile).toList finally files.close()
    }.map { f =>
      val reader = ParquetFileReader.open(HadoopInputFile.fromPath(new Path(f.toUri), conf))
      try reader.getRecordCount finally reader.close()
    }.sum
  }

  /** The base path and the directories a pruned read lists: the `(agent,
    * day)` partitions of agent-bound reads, the day directories of day-only
    * reads, and all of `by_day` for the whole store.
    */
  private def prunedDirs(path: String, agents: Option[Seq[Int]],
                         days: Option[Seq[String]]): (String, Seq[String]) =
    (agents, days) match {
      case (None, None) => (byDay(path), Seq(byDay(path)))
      case (Some(as), _) => (byAgentDay(path), partitions(path, as, days).map(partitionDir(path)))
      case (None, Some(ds)) =>
        val dayDirs = subdirs(byDay(path), "day=").filter(d => ds.contains(d.stripPrefix("day=")))
        (byDay(path), dayDirs.map(d => s"${byDay(path)}/$d"))
    }

  /** A Parquet data file, as Spark's file listing sees one (it skips names
    * starting with `_` or `.`).
    */
  private def isDataFile(p: java.nio.file.Path): Boolean = {
    val name = p.getFileName.toString
    Files.isRegularFile(p) && name.endsWith(".parquet") &&
      !name.startsWith("_") && !name.startsWith(".")
  }

  /** The `(agent_id, day)` partitions the store holds for `agents`, on
    * `days` when given and on every stored day otherwise.
    */
  def partitions(path: String, agents: Seq[Int],
                 days: Option[Seq[String]]): Seq[(Int, String)] =
    for {
      a <- agents.distinct
      d <- subdirs(s"${byAgentDay(path)}/agent_id=$a", "day=").map(_.stripPrefix("day=")).sorted
      if days.forall(_.contains(d))
    } yield (a, d)

  /** Read `(agent_id, day)` partitions of the `by_agent_day` layout, in one
    * scan over their directories.
    */
  def readPartitions(spark: SparkSession, path: String, parts: Seq[(Int, String)]): DataFrame =
    readDirs(spark, byAgentDay(path), parts.map(partitionDir(path)))

  /** The number of rows [[readPartitions]] returns for `parts`, from their
    * Parquet footers.
    */
  def partitionRows(spark: SparkSession, path: String, parts: Seq[(Int, String)]): Long =
    footerRows(spark, parts.map(partitionDir(path)))

  private def partitionDir(path: String)(part: (Int, String)): String =
    s"${byAgentDay(path)}/agent_id=${part._1}/day=${part._2}"

  /** Names of the subdirectories of `path` that start with `prefix`. */
  private def subdirs(path: String, prefix: String): Seq[String] = {
    val p = Paths.get(path)
    if (!Files.isDirectory(p)) Seq.empty
    else Files.list(p).iterator.asScala
      .filter(Files.isDirectory(_))
      .map(_.getFileName.toString)
      .filter(_.startsWith(prefix))
      .toSeq
  }

  private def readDirs(spark: SparkSession, basePath: String, dirs: Seq[String]): DataFrame =
    if (dirs.isEmpty)
      spark.createDataFrame(spark.sparkContext.emptyRDD[Row], EventSchema.schema)
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
